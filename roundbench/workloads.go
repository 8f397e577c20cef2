package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/transport"
)

// workload is one benchmarked federation. run builds it from the seed
// (set-up) and drives rounds committed rounds, reporting through o.
type workload struct {
	name string
	// rate is the nominal committed-rounds-per-second of the workload; the
	// run's round count is fixed from it and --seconds, so the same seed
	// and duration always commit the same rounds and move the same bytes.
	rate float64
	// warmup rounds run before the timed loop and are reported apart.
	warmup int
	// exactBytes marks workloads whose per-round up/down bytes must be
	// identical in every timed round (fixed cohort, dense frames).
	exactBytes bool
	run        func(ctx context.Context, o *observer, seed int64, rounds int) (*runOut, error)
}

// runOut is what one run of a workload leaves for the metrics and checks.
type runOut struct {
	hist    []fl.RoundMetrics
	classes int
	trace   *fl.Trace     // in-process engines
	stats   *fl.NodeStats // node path
	keep    any           // the fleet, kept reachable until the heap is measured

	// Replay inputs: the unwrapped builder, one client id per distinct
	// architecture, each id's architecture (nil for a homogeneous fleet)
	// and the training shape.
	build       experiments.ClientBuilder
	replayIDs   []int
	archOf      func(id int) string
	batch       int
	contrastive bool
	tau         float64
	upSpec      comm.Spec
	upClassOnly bool // uploads carry only the classifier
}

var workloads = []*workload{
	{name: "paper-inproc", rate: 21, warmup: 5, exactBytes: true, run: runPaperInproc},
	{name: "wire-tcp", rate: 78, warmup: 20, run: runWireTCP},
	{name: "fleet-async", rate: 160, warmup: 100, exactBytes: true, run: runFleetAsync},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-inproc | wire-tcp | fleet-async)", name)
}

// fleet runs the data generation and partition step under its span.
func fleet(o *observer, newBuilder func() (experiments.ClientBuilder, *data.Dataset, error)) (experiments.ClientBuilder, *data.Dataset, error) {
	end := o.tr.begin("experiments.data", "")
	b, ds, err := newBuilder()
	end()
	return b, ds, err
}

// runPaperInproc is the paper's Table-2 setting: FedClassAvg (CA+PR+CL)
// on the heterogeneous four-architecture fleet at the Small scale, synced
// on the in-process engine.
func runPaperInproc(ctx context.Context, o *observer, seed int64, rounds int) (*runOut, error) {
	s := experiments.Small()
	s.Seed = seed
	build, ds, err := fleet(o, func() (experiments.ClientBuilder, *data.Dataset, error) {
		return experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
	})
	if err != nil {
		return nil, err
	}
	b := wrapBuilder(build, o)
	clients := make([]*fl.Client, s.Clients)
	for i := range clients {
		clients[i] = b(i)
	}
	algo, err := experiments.NewAlgorithm(experiments.MethodProposed, experiments.Fashion, s)
	if err != nil {
		return nil, err
	}
	wa, err := wrapAlgorithm(algo, o, "fl.engine")
	if err != nil {
		return nil, err
	}
	sim := fl.NewSimulation(clients, fl.Config{Rounds: rounds, SampleRate: 1, BatchSize: s.BatchSize, Seed: s.Seed + 7})
	out := &runOut{
		classes: ds.NumClasses, trace: &fl.Trace{}, keep: sim, build: build,
		replayIDs: []int{0, 1, 2, 3}, archOf: func(id int) string { return clients[id].Model.Name },
		batch: s.BatchSize, contrastive: true, tau: core.DefaultOptions().Tau,
		upSpec: comm.Spec{Value: comm.F64}, upClassOnly: true,
	}
	out.hist, err = sim.RunScheduledContext(ctx, wa, fl.SchedulerConfig{Kind: fl.SchedSync, Trace: out.trace})
	if err == nil {
		// The sync seam closes round t when round t+1 starts; the last
		// round (and its evaluation) closes when the run returns.
		o.mark(rounds)
	}
	return out, err
}

// wireHeartbeat is the node path's liveness cadence. It is set past the
// longest run so heartbeat frames never land in a round: per-round bytes
// then repeat exactly between runs, which the traced/untraced comparison
// relies on. At the default one-second cadence heartbeats are two frames
// a second against ~80 rounds of about ten frames each.
const wireHeartbeat = 10 * time.Minute

// runWireTCP is the node path: one ServerNode and nproc ClientNodes over
// loopback TCP, FedAvg on the homogeneous fleet with a wide feature layer,
// f32 top-k 10% delta-framed uplinks and dense downlinks.
func runWireTCP(ctx context.Context, o *observer, seed int64, rounds int) (*runOut, error) {
	s := experiments.Small()
	s.Seed = seed
	s.FeatDim = 1024
	s.TrainPerClass, s.TestPerClass = 4, 4
	k := runtime.NumCPU()
	build, ds, err := fleet(o, func() (experiments.ClientBuilder, *data.Dataset, error) {
		return experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "homogeneous", k, s)
	})
	if err != nil {
		return nil, err
	}
	spec := comm.NewSpec(comm.F32, 0.1, true)
	out := &runOut{
		classes: ds.NumClasses, build: build, replayIDs: []int{0},
		batch: s.BatchSize, upSpec: spec,
	}
	var tr transport.Transport = transport.NewTCP(transport.Options{DType: s.DType, Spec: spec})
	if o.tr != nil {
		if tr, err = wrapTransport(tr, o); err != nil {
			return nil, err
		}
	}
	newAlgo := func() (fl.WireAlgorithm, error) {
		a, err := experiments.NewAlgorithm(experiments.MethodFedAvg, experiments.Fashion, s)
		if err != nil {
			return nil, err
		}
		return wrapAlgorithm(a, o, "fl.node")
	}
	srvAlgo, err := newAlgo()
	if err != nil {
		return nil, err
	}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg := experiments.NodeConfigFor(s, 1, spec, k)
	cfg.Rounds = rounds
	cfg.Heartbeat = wireHeartbeat
	cfg.OnRound = func(m fl.RoundMetrics) { o.mark(m.Round) }
	srv := fl.NewServerNode(srvAlgo, cfg)
	out.keep = srv

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	b := wrapBuilder(build, o)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for id := 0; id < k; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = runClientNode(ctx, tr, ln.Addr(), b, id, s.Seed, newAlgo)
		}(id)
	}
	hist, err := srv.Serve(ctx, ln)
	if err != nil {
		cancel()
	}
	wg.Wait()
	out.hist, out.stats = hist, &srv.Stats
	if err != nil {
		return out, err
	}
	for id, cerr := range errs {
		if cerr != nil {
			return out, fmt.Errorf("client node %d: %w", id, cerr)
		}
	}
	return out, nil
}

// runClientNode is experiments.RunClientNode with the algorithm and
// builder seams installed: build, dial, and serve with a jittered
// reconnecting dialer.
func runClientNode(ctx context.Context, tr transport.Transport, addr string, build experiments.ClientBuilder, id int, seed int64, newAlgo func() (fl.WireAlgorithm, error)) error {
	algo, err := newAlgo()
	if err != nil {
		return err
	}
	c := build(id)
	conn, err := tr.Dial(ctx, addr)
	if err != nil {
		return err
	}
	node := &fl.ClientNode{
		Client: c,
		Algo:   algo,
		Dialer: func(ctx context.Context, token uint64) (transport.Conn, error) {
			return transport.DialRetry(ctx, tr, addr, transport.RetryOptions{Seed: seed*1000 + int64(id), Token: token})
		},
	}
	return node.Run(ctx, conn)
}

// Fleet-async shape: a 1000-client lazy fleet, a cohort of 8 per round and
// at most 32 clients resident.
const (
	asyncFleet    = 1000
	asyncRate     = 0.008
	asyncResident = 32
)

// runFleetAsync is the virtual-fleet path: FedAvg over a lazily
// materialized homogeneous fleet under the bounded-staleness async
// scheduler, with one straggler.
func runFleetAsync(ctx context.Context, o *observer, seed int64, rounds int) (*runOut, error) {
	s := experiments.Small()
	s.Seed = seed
	build, ds, err := fleet(o, func() (experiments.ClientBuilder, *data.Dataset, error) {
		return experiments.NewLazyFleetBuilder(experiments.Fashion, data.Dirichlet, "homogeneous", asyncFleet, s)
	})
	if err != nil {
		return nil, err
	}
	algo, err := experiments.NewAlgorithm(experiments.MethodFedAvg, experiments.Fashion, s)
	if err != nil {
		return nil, err
	}
	wa, err := wrapAlgorithm(algo, o, "fl.engine")
	if err != nil {
		return nil, err
	}
	sim := fl.NewLazySimulation(asyncFleet, wrapBuilder(build, o), asyncResident,
		fl.Config{Rounds: rounds, SampleRate: asyncRate, BatchSize: s.BatchSize, Seed: s.Seed + 7})
	out := &runOut{
		classes: ds.NumClasses, trace: &fl.Trace{}, keep: sim, build: build, replayIDs: []int{0},
		batch: s.BatchSize, upSpec: comm.Spec{Value: comm.F64},
	}
	out.hist, err = sim.RunScheduledContext(ctx, wa, fl.SchedulerConfig{
		Kind:  fl.SchedAsyncBounded,
		Decay: 0.5,
		Costs: experiments.StragglerCosts(asyncFleet, 1, 2),
		Trace: out.trace,
	})
	return out, err
}

// probeErr reports whether err is the expected end of a set-up probe.
func probeErr(err error) bool {
	return errors.Is(err, errProbe) || errors.Is(err, context.Canceled)
}
