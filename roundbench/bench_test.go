package main

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/transport"
)

// implements lists which optional interfaces the program type-asserts a
// value satisfies.
func implements(v any) map[string]bool {
	_, async := v.(fl.AsyncAlgorithm)
	_, group := v.(fl.GroupLocalAlgorithm)
	_, wire := v.(fl.WireAlgorithm)
	_, ckpt := v.(fl.CheckpointableAlgorithm)
	_, reduce := v.(fl.ReducibleWireAlgorithm)
	_, lossy := v.(fl.LossyUploadWireAlgorithm)
	_, optCkpt := v.(opt.Checkpointable)
	_, session := v.(transport.SessionDialer)
	return map[string]bool{
		"AsyncAlgorithm": async, "GroupLocalAlgorithm": group, "WireAlgorithm": wire,
		"CheckpointableAlgorithm": ckpt, "ReducibleWireAlgorithm": reduce, "LossyUploads": lossy,
		"opt.Checkpointable": optCkpt, "SessionDialer": session,
	}
}

func sameInterfaces(t *testing.T, what string, inner, seam any) {
	t.Helper()
	want, got := implements(inner), implements(seam)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: inner implements %s = %v, seam = %v", what, name, w, got[name])
		}
	}
}

// plainOptimizer has no checkpoint support, so its seam must not claim one.
type plainOptimizer struct{}

func (plainOptimizer) Step([]*nn.Param) {}

func TestSeamsForwardOptionalInterfaces(t *testing.T) {
	s := experiments.Small()
	o := newObserver(true, false, nil)
	for _, method := range []string{experiments.MethodProposed, experiments.MethodFedAvg} {
		a, err := experiments.NewAlgorithm(method, experiments.Fashion, s)
		if err != nil {
			t.Fatal(err)
		}
		seam, err := wrapAlgorithm(a, o, "fl.engine")
		if err != nil {
			t.Fatal(err)
		}
		sameInterfaces(t, method, a, seam)
		if seam.(fl.LossyUploadWireAlgorithm).LossyUploads() != a.(fl.LossyUploadWireAlgorithm).LossyUploads() {
			t.Errorf("%s: LossyUploads not forwarded", method)
		}
	}
	proto, err := experiments.NewAlgorithm(experiments.MethodFedProto, experiments.Fashion, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrapAlgorithm(proto, o, "fl.engine"); err == nil {
		t.Error("FedProto has no lossy uploads; wrapping it must fail rather than add the interface")
	}
	for _, inner := range []opt.Optimizer{opt.NewAdam(0.01), plainOptimizer{}} {
		sameInterfaces(t, "optimizer", inner, wrapOptimizer(inner, o, "arch"))
	}
	tcp := transport.NewTCP(transport.Options{})
	seam, err := wrapTransport(tcp, o)
	if err != nil {
		t.Fatal(err)
	}
	sameInterfaces(t, "tcp", tcp, seam)
}

// short returns a copy of w sized for a test: two warm-up rounds.
func short(w *workload) *workload {
	c := *w
	c.warmup = 2
	return &c
}

func TestTracedRunReproducesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := short(w)
			const rounds = 12
			base, err := execute(w, 3, rounds, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := execute(w, 3, rounds, true)
			if err != nil {
				t.Fatal(err)
			}
			if diff := compareHistories(base.out.hist, traced.out.hist); diff != "" {
				t.Fatalf("traced run diverged: %s", diff)
			}
			if len(base.out.hist) != rounds {
				t.Fatalf("%d evaluation points, want %d", len(base.out.hist), rounds)
			}
			if len(traced.o.tr.spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
		})
	}
}

func TestSetupProbeStopsAtFirstRound(t *testing.T) {
	probeAll := func() {
		for _, w := range workloads {
			start := time.Now()
			s, err := probeSetup(w, 1, 1000)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if s <= 0 || s > time.Since(start).Seconds() {
				t.Fatalf("%s: set-up %v s outside the probe's %v", w.name, s, time.Since(start))
			}
		}
	}
	// The first pass starts the persistent tensor worker pool; the second
	// must leave no goroutine behind.
	probeAll()
	before := runtime.NumGoroutine()
	probeAll()
	// Node goroutines unwind asynchronously after Serve returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines left running after the probes (%d before)", n, before)
	}
}
