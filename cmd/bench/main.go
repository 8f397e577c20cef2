// Command bench runs the repository's root benchmarks and writes a
// machine-readable BENCH_<date>.json so the performance trajectory stays
// comparable across PRs. It shells out to `go test -bench` with -benchmem,
// parses the standard benchmark output, and optionally joins a previous
// BENCH file to compute per-benchmark speedups.
//
// Usage:
//
//	go run ./cmd/bench -bench 'MatMul64|ConvForward|ClientLocalEpoch' \
//	    -benchtime 2s -baseline BENCH_2026-07-01.json
//
// Compare mode gates CI on performance: it joins two BENCH files by
// benchmark name and exits non-zero if any shared metric regressed by more
// than the threshold (default 15%) — ns/op up, a custom throughput metric
// (rounds/vtime) down, or allocs/op up. Files recorded at different
// GOMAXPROCS values are refused (exit 2), since both wall time and
// allocation counts depend on how many workers dispatch runs on:
//
//	go run ./cmd/bench -compare BENCH_2026-07-28.json BENCH_new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/tensor"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extra holds custom b.ReportMetric values (for example the scheduler
	// benchmarks' "rounds/vtime" virtual round throughput).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Speedup compares a benchmark against the baseline file.
type Speedup struct {
	NsRatio     float64 `json:"ns_ratio"`     // baseline ns / current ns
	AllocsRatio float64 `json:"allocs_ratio"` // baseline allocs / current allocs
}

// File is the on-disk BENCH_<date>.json schema.
type File struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPU       string `json:"cpu,omitempty"`
	// Features names the SIMD kernel tiers the host selects (tensor.
	// CPUFeatures); -compare refuses to gate wall time across files whose
	// tiers differ, since a portable-vs-AVX2-vs-AVX512 delta is a host
	// property, not a regression.
	Features []string `json:"features,omitempty"`
	// GOMAXPROCS is the value the benchmarks ran at (the `go test` child
	// inherits this process's environment and CPU affinity). Zero in files
	// that predate the field.
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	BenchRegex string             `json:"bench_regex"`
	BenchTime  string             `json:"bench_time"`
	Benchmarks []Result           `json:"benchmarks"`
	Baseline   []Result           `json:"baseline,omitempty"`
	Speedups   map[string]Speedup `json:"speedups,omitempty"`
}

// benchLine matches the prefix of a benchmark result line,
// `BenchmarkName-8  100  12345 ns/op  ...` (the -8 suffix is optional);
// metricPair then picks up every trailing `value unit` column — B/op,
// allocs/op and any custom b.ReportMetric units.
var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)
	metricPair = regexp.MustCompile(`([\d.]+) (\S+)`)
	cpuLine    = regexp.MustCompile(`^cpu: (.+)$`)
)

func main() {
	bench := flag.String("bench", "MatMul64|MatMul32|ConvForward|ClientLocalEpoch|ClassifierAveraging|RoundThroughput|LazyRehydrate|QuantizedMarshal|MarshalTopK|DecodeDelta", "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "2s", "value passed to go test -benchtime")
	pkg := flag.String("pkg", ".", "package containing the benchmarks")
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	baseline := flag.String("baseline", "", "previous BENCH_*.json to record and compare against")
	compare := flag.Bool("compare", false, "compare two BENCH files (old new) and exit non-zero on regression")
	threshold := flag.Float64("threshold", 0.15, "with -compare: allowed fractional regression per metric")
	metrics := flag.String("metrics", "all", "with -compare: which metrics to gate: all | portable (allocs/op and custom throughput only — ns/op is machine-dependent, so cross-machine comparisons such as CI vs a checked-in dev-box baseline should gate on portable metrics)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		if *metrics != "all" && *metrics != "portable" {
			fmt.Fprintf(os.Stderr, "bench: unknown -metrics %q (want all | portable)\n", *metrics)
			os.Exit(2)
		}
		regressions, err := compareFiles(flag.Arg(0), flag.Arg(1), *threshold, *metrics == "all")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "bench: %d metric(s) regressed more than %.0f%%:\n", len(regressions), *threshold*100)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("no hot-path metric regressed more than %.0f%% (%s -> %s)\n", *threshold*100, flag.Arg(0), flag.Arg(1))
		return
	}

	raw, err := runBenchmarks(*pkg, *bench, *benchtime)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	results, cpu := parseBenchOutput(raw)
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "bench: no benchmark lines matched %q; output was:\n%s", *bench, raw)
		os.Exit(1)
	}

	f := &File{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpu,
		Features:   tensor.CPUFeatures(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		BenchRegex: *bench,
		BenchTime:  *benchtime,
		Benchmarks: results,
	}
	if *baseline != "" {
		if err := joinBaseline(f, *baseline); err != nil {
			fmt.Fprintf(os.Stderr, "bench: baseline: %v\n", err)
			os.Exit(1)
		}
	}

	path := *out
	if path == "" {
		path = "BENCH_" + f.Date + ".json"
	}
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(results))
	for _, r := range results {
		line := fmt.Sprintf("  %-32s %12.0f ns/op %8d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		if s, ok := f.Speedups[r.Name]; ok {
			line += fmt.Sprintf("   %.2fx ns, %.2fx allocs vs baseline", s.NsRatio, s.AllocsRatio)
		}
		for unit, v := range r.Extra {
			line += fmt.Sprintf("   %.2f %s", v, unit)
		}
		fmt.Println(line)
	}
}

func runBenchmarks(pkg, bench, benchtime string) (string, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", bench,
		"-benchtime", benchtime, "-benchmem", pkg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go test -bench: %w", err)
	}
	return string(out), nil
}

func parseBenchOutput(raw string) ([]Result, string) {
	var results []Result
	var cpu string
	for _, line := range strings.Split(raw, "\n") {
		line = strings.TrimSpace(line)
		if m := cpuLine.FindStringSubmatch(line); m != nil {
			cpu = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		r := Result{Name: m[1], Iterations: iters, NsPerOp: ns}
		for _, pair := range metricPair.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				continue
			}
			switch pair[2] {
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			default:
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[pair[2]] = v
			}
		}
		results = append(results, r)
	}
	return results, cpu
}

// loadFile parses a BENCH_*.json file.
func loadFile(path string) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s holds no benchmarks", path)
	}
	return &f, nil
}

// compareFiles joins two BENCH files by benchmark name and reports every
// shared metric that regressed by more than threshold: wall time per op up
// (only when compareNs — ns/op is meaningless across different machines),
// custom throughput metrics (higher-is-better b.ReportMetric values like
// rounds/vtime, which ride the deterministic virtual clock) down, or
// allocations per op (exactly reproducible) up. Benchmarks present in only
// one file are ignored — adding or retiring benchmarks is not a regression.
func compareFiles(oldPath, newPath string, threshold float64, compareNs bool) ([]string, error) {
	oldF, err := loadFile(oldPath)
	if err != nil {
		return nil, err
	}
	newF, err := loadFile(newPath)
	if err != nil {
		return nil, err
	}
	// Parallel dispatch allocates per-task closures and changes wall time,
	// so no metric compares across GOMAXPROCS values. Files predating the
	// field compare as before, with a note.
	switch {
	case oldF.GOMAXPROCS > 0 && newF.GOMAXPROCS > 0 && oldF.GOMAXPROCS != newF.GOMAXPROCS:
		return nil, fmt.Errorf("%s ran at GOMAXPROCS=%d, %s at GOMAXPROCS=%d: allocs/op and ns/op are not comparable across GOMAXPROCS values (rerun with GOMAXPROCS=%d)",
			oldPath, oldF.GOMAXPROCS, newPath, newF.GOMAXPROCS, oldF.GOMAXPROCS)
	case oldF.GOMAXPROCS == 0 || newF.GOMAXPROCS == 0:
		fmt.Fprintf(os.Stderr, "bench: note: %s and %s do not both record GOMAXPROCS; comparing without the GOMAXPROCS check\n", oldPath, newPath)
	}
	// Wall time measured under different kernel tiers is a host delta, not
	// a code delta: refuse to gate ns/op across feature-mismatched files.
	// Files predating the features field gate as before — absence proves
	// nothing. Portable metrics (allocs/op, virtual-clock throughput) stay
	// comparable across hosts.
	if compareNs && len(oldF.Features) > 0 && len(newF.Features) > 0 &&
		strings.Join(oldF.Features, ",") != strings.Join(newF.Features, ",") {
		return nil, fmt.Errorf("%s ran with CPU features [%s], %s with [%s]: ns/op is not comparable across kernel tiers (rerun on one host, or gate with -metrics portable)",
			oldPath, strings.Join(oldF.Features, " "), newPath, strings.Join(newF.Features, " "))
	}
	byName := make(map[string]Result, len(oldF.Benchmarks))
	for _, r := range oldF.Benchmarks {
		byName[r.Name] = r
	}
	var regressions []string
	for _, cur := range newF.Benchmarks {
		base, ok := byName[cur.Name]
		if !ok {
			continue
		}
		if compareNs && base.NsPerOp > 0 && cur.NsPerOp > base.NsPerOp*(1+threshold) {
			regressions = append(regressions, fmt.Sprintf("%s: %.0f ns/op -> %.0f ns/op (%+.1f%%)",
				cur.Name, base.NsPerOp, cur.NsPerOp, 100*(cur.NsPerOp/base.NsPerOp-1)))
		}
		// A couple of allocations of jitter on a near-zero count is noise,
		// not a leak; gate on the relative change past a small floor.
		if base.AllocsPerOp >= 0 && float64(cur.AllocsPerOp) > float64(base.AllocsPerOp)*(1+threshold)+2 {
			regressions = append(regressions, fmt.Sprintf("%s: %d allocs/op -> %d allocs/op",
				cur.Name, base.AllocsPerOp, cur.AllocsPerOp))
		}
		for unit, v := range base.Extra {
			nv, ok := cur.Extra[unit]
			if !ok || v <= 0 {
				continue
			}
			if nv < v*(1-threshold) {
				regressions = append(regressions, fmt.Sprintf("%s: %.2f %s -> %.2f %s (%+.1f%%)",
					cur.Name, v, unit, nv, unit, 100*(nv/v-1)))
			}
		}
	}
	return regressions, nil
}

// joinBaseline loads a previous BENCH file, embeds its measurements, and
// computes speedup ratios for benchmarks present in both runs.
func joinBaseline(f *File, path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var prev File
	if err := json.Unmarshal(buf, &prev); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	f.Baseline = prev.Benchmarks
	f.Speedups = make(map[string]Speedup)
	byName := make(map[string]Result, len(prev.Benchmarks))
	for _, r := range prev.Benchmarks {
		byName[r.Name] = r
	}
	for _, cur := range f.Benchmarks {
		base, ok := byName[cur.Name]
		if !ok || cur.NsPerOp == 0 {
			continue
		}
		s := Speedup{NsRatio: base.NsPerOp / cur.NsPerOp}
		if cur.AllocsPerOp > 0 {
			s.AllocsRatio = float64(base.AllocsPerOp) / float64(cur.AllocsPerOp)
		} else if base.AllocsPerOp > 0 {
			s.AllocsRatio = float64(base.AllocsPerOp) // effectively ∞; report the baseline count
		}
		f.Speedups[cur.Name] = s
	}
	return nil
}
