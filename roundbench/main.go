// Command roundbench is the steady-state round benchmark: it builds one
// federation workload once, times only committed rounds after a warm-up,
// checks the run's outputs, and prints the end-to-end metrics (--trace 0)
// or the per-layer breakdown of a traced run (--trace 1) as one JSON line.
// See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/fl"
	"repro/internal/tensor"
)

// setupRuns is how many times a run sets its workload up; setup_s is the
// median. All but the last stop at the first round.
const setupRuns = 9

// minTimedRounds keeps at least ten rounds beyond the 90th percentile.
const minTimedRounds = 100

// chunks splits the timed loop for the rate metrics: rounds_per_s and
// cpu_ms_per_round are medians over the chunks, so a burst of load from
// outside the process moves at most the chunks it overlaps.
const chunks = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostRecord identifies the machine and build a result came from.
type hostRecord struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Rounds     int      `json:"rounds"`
	Warmup     int      `json:"warmup_rounds"`
	CPU        string   `json:"cpu"`
	Tier       []string `json:"cpu_features"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
}

func main() {
	workload := flag.String("workload", "", "paper-inproc | wire-tcp | fleet-async")
	seed := flag.Int64("seed", 1, "workload seed (becomes Scale.Seed)")
	seconds := flag.Float64("seconds", 10, "nominal timed-loop duration; fixes the round count")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, err := lookup(*workload)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "roundbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	rounds := w.warmup + max(minTimedRounds, int(math.Ceil(*seconds*w.rate)))
	host := hostRecord{
		Workload: w.name, Seed: *seed, Rounds: rounds, Warmup: w.warmup,
		CPU: cpuModel(), Tier: tensor.CPUFeatures(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	hj, _ := json.Marshal(host)
	fmt.Println("host", string(hj))

	res, ok := bench(w, *seed, rounds, *trace == 1)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roundbench: encoding the result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !ok || !res.Correct {
		os.Exit(1)
	}
}

// bench runs the workload and returns the result line; ok is false when a
// run failed outright.
func bench(w *workload, seed int64, rounds int, traced bool) (result, bool) {
	// The result counts rounds: every configured round is attempted, and
	// one that never commits has failed. A run that errors commits none.
	res := result{Correct: false, Attempted: int64(rounds), Failed: int64(rounds), Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		fmt.Printf("CHECK FAILED: "+format+"\n", args...)
		res.Correct = false
	}
	// Set-up probes stop at the first round; the last set-up runs on.
	var setups []float64
	if !traced {
		for i := 1; i < setupRuns; i++ {
			s, err := probeSetup(w, seed, rounds)
			if err != nil {
				fmt.Println("run failed:", err)
				return res, false
			}
			setups = append(setups, s)
		}
	}
	base, err := execute(w, seed, rounds, false)
	if err != nil {
		fmt.Println("run failed:", err)
		return res, false
	}
	setups = append(setups, base.o.setupSeconds())
	e2e := endToEnd(w, base, rounds)
	e2e.setupS = medianF(setups)
	res.Correct, res.Failed = true, int64(rounds)-base.o.committed.Load()
	checkRun(w, base, rounds, e2e, fail)
	printEndToEnd(w, base, e2e, setups)
	if !traced {
		for _, m := range endToEndMetrics(e2e) {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
		return res, true
	}

	tr, err := execute(w, seed, rounds, true)
	if err != nil {
		fmt.Println("traced run failed:", err)
		res.Correct = false
		return res, false
	}
	if diff := compareHistories(base.out.hist, tr.out.hist); diff != "" {
		fail("traced run diverged from the untraced run: %s", diff)
	}
	layers := perLayer(w, base, tr, rounds, e2e)
	for _, m := range layers {
		res.Metrics[m.name] = metric{m.value, m.unit}
		fmt.Printf("layer %-30s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	path := fmt.Sprintf(".bench_build/trace/%s-seed%d.jsonl", w.name, seed)
	if err := tr.o.tr.write(path, map[string]any{"workload": w.name, "seed": seed, "rounds": rounds, "warmup": w.warmup}); err != nil {
		fmt.Println("writing spans:", err)
	} else {
		fmt.Println("spans written to", path)
	}
	return res, true
}

// sample is a point-in-time reading of the process counters.
type sample struct {
	at       time.Time
	round    int
	cpu      time.Duration
	allocB   float64
	gcCycles float64
	gcCPU    float64
	allCPU   float64
	frames   int64
	bytes    int64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func takeSample(tsp *transportSeam, round int) sample {
	s := sample{at: time.Now(), round: round}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ms[i].Name = name
	}
	metrics.Read(ms)
	val := func(i int) float64 {
		switch ms[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ms[i].Value.Uint64())
		case metrics.KindFloat64:
			return ms[i].Value.Float64()
		}
		return 0
	}
	s.allocB, s.gcCycles, s.gcCPU, s.allCPU = val(0), val(1), val(2), val(3)
	if tsp != nil {
		s.frames, s.bytes, _ = tsp.traffic()
	}
	return s
}

// execution is one full run: its observer, outputs and window samples.
type execution struct {
	o          *observer
	out        *runOut
	samples    []sample // at the end of warm-up, of every chunk and of the last round
	from, to   sample   // the first and last samples
	liveHeap   float64
	dispatched int64
	failed     int64
	drops      int64
}

// probeSetup sets the workload up and stops at the first round.
func probeSetup(w *workload, seed int64, rounds int) (float64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := newObserver(false, true, cancel)
	if _, err := w.run(ctx, o, seed, rounds); err != nil && !probeErr(err) {
		return 0, err
	}
	if o.setupEnd.Load() == 0 {
		return 0, fmt.Errorf("set-up probe never reached round 1")
	}
	return o.setupSeconds(), nil
}

func execute(w *workload, seed int64, rounds int, traced bool) (*execution, error) {
	runtime.GC()
	o := newObserver(traced, false, nil)
	ex := &execution{o: o}
	chunk := max(1, (rounds-w.warmup)/chunks)
	o.onMark = func(t int) {
		if t >= w.warmup && ((t-w.warmup)%chunk == 0 || t == rounds) {
			ex.samples = append(ex.samples, takeSample(o.tsp, t))
		}
	}
	out, err := w.run(context.Background(), o, seed, rounds)
	if err != nil {
		return nil, err
	}
	if len(ex.samples) < 2 {
		return nil, fmt.Errorf("run ended after %d of %d rounds", o.committed.Load(), rounds)
	}
	ex.from, ex.to = ex.samples[0], ex.samples[len(ex.samples)-1]
	ex.out = out
	// Two collections: the first moves sync.Pool contents to their victim
	// caches, the second frees them, so pooled scratch does not count.
	runtime.GC()
	runtime.GC()
	ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(ms)
	ex.liveHeap = float64(ms[0].Value.Uint64()) / 1e6
	runtime.KeepAlive(out.keep)
	ex.dispatched, ex.failed, ex.drops = landing(o, out)
	if traced {
		o.tr.finish()
	}
	return ex, nil
}

// landing counts dispatched updates and those that did not land in a
// commit. The in-process async engine's fl.Trace names every dispatch,
// delivery, drop and commit; the sync engine and the node path land every
// update they dispatch unless ServerNode.Stats records drops.
func landing(o *observer, out *runOut) (dispatched, failed, drops int64) {
	if out.trace != nil && len(out.trace.Events) > 0 {
		var delivered, landed int64
		for _, e := range out.trace.Events {
			switch e.Kind {
			case fl.TraceDispatch:
				dispatched++
			case fl.TraceDeliver:
				delivered++
			case fl.TraceDrop:
				drops++
			case fl.TraceCommit:
				landed = delivered
			}
		}
		return dispatched, dispatched - landed, drops
	}
	dispatched = o.dispatched.Load()
	if out.stats != nil {
		drops = int64(out.stats.Drops)
	}
	return dispatched, dispatched - o.applied.Load(), drops
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return runtime.GOARCH
}

// roundDurations returns the wall time of every timed round, in ms.
func roundDurations(o *observer, warmup, rounds int) []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	ds := make([]float64, 0, rounds-warmup)
	for t := warmup + 1; t <= rounds && t < len(o.marks); t++ {
		ds = append(ds, float64(o.marks[t].Sub(o.marks[t-1]))/1e6)
	}
	return ds
}

// quantile is the nearest-rank quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
