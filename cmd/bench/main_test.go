package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

// The bench binary shells out to `go test -bench` over the whole module, so
// its smoke test stops at build + usage: a full run would recompile the
// root test package inside every CI test job.
func TestBenchSmoke(t *testing.T) {
	out := cmdtest.Run(t, nil, "-h")
	if !strings.Contains(out, "-bench") {
		t.Fatalf("missing usage output:\n%s", out)
	}
}

func writeBench(t *testing.T, dir, name string, f File) string {
	t.Helper()
	buf, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// -compare must pass on improvements and noise, and fail on >threshold
// regressions of any shared metric (ns up, throughput down, allocs up).
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	old := File{Benchmarks: []Result{
		{Name: "BenchmarkMatMul64", NsPerOp: 1000, AllocsPerOp: 4},
		{Name: "BenchmarkRoundThroughputAsync", NsPerOp: 500, Extra: map[string]float64{"rounds/vtime": 2.0}},
		{Name: "BenchmarkRetired", NsPerOp: 10},
	}}
	oldPath := writeBench(t, dir, "old.json", old)

	ok := File{Benchmarks: []Result{
		{Name: "BenchmarkMatMul64", NsPerOp: 1100, AllocsPerOp: 4},                                            // +10%: within budget
		{Name: "BenchmarkRoundThroughputAsync", NsPerOp: 480, Extra: map[string]float64{"rounds/vtime": 1.9}}, // -5%: fine
		{Name: "BenchmarkNew", NsPerOp: 99999},                                                                // only in new: ignored
	}}
	regs, err := compareFiles(oldPath, writeBench(t, dir, "ok.json", ok), 0.15, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("within-budget run flagged: %v", regs)
	}

	bad := File{Benchmarks: []Result{
		{Name: "BenchmarkMatMul64", NsPerOp: 1300, AllocsPerOp: 40},                                           // ns +30%, allocs 10x
		{Name: "BenchmarkRoundThroughputAsync", NsPerOp: 500, Extra: map[string]float64{"rounds/vtime": 1.0}}, // throughput halved
	}}
	badPath := writeBench(t, dir, "bad.json", bad)
	regs, err = compareFiles(oldPath, badPath, 0.15, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 3 {
		t.Fatalf("want 3 regressions (ns, allocs, throughput), got %d: %v", len(regs), regs)
	}

	// Portable mode skips the machine-dependent ns comparison but keeps the
	// allocs and throughput gates — the cross-machine CI configuration.
	regs, err = compareFiles(oldPath, badPath, 0.15, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("portable mode: want 2 regressions (allocs, throughput), got %d: %v", len(regs), regs)
	}

	if _, err := compareFiles(oldPath, filepath.Join(dir, "missing.json"), 0.15, true); err == nil {
		t.Fatal("missing file must error")
	}
}

// -compare refuses files recorded at different GOMAXPROCS values, and
// compares files that share a value, or that predate the field, as usual.
func TestCompareFilesGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	bench := []Result{{Name: "BenchmarkMatMul64", NsPerOp: 1000, AllocsPerOp: 4}}
	at := func(name string, procs int) string {
		return writeBench(t, dir, name, File{GOMAXPROCS: procs, Benchmarks: bench})
	}
	one, two, legacy := at("one.json", 1), at("two.json", 2), at("legacy.json", 0)

	_, err := compareFiles(one, two, 0.15, false)
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS=1") || !strings.Contains(err.Error(), "GOMAXPROCS=2") {
		t.Fatalf("GOMAXPROCS 1 vs 2 must be refused with both values named, got %v", err)
	}
	for _, pair := range [][2]string{{one, at("one-again.json", 1)}, {legacy, one}, {two, legacy}} {
		regs, err := compareFiles(pair[0], pair[1], 0.15, true)
		if err != nil || len(regs) != 0 {
			t.Fatalf("%s vs %s: regressions %v, err %v", pair[0], pair[1], regs, err)
		}
	}
}
