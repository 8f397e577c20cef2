package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/fl"
)

// named is one reported metric.
type named struct {
	name  string
	value float64
	unit  string
	note  string
}

// e2e holds the end-to-end metrics of an untraced run.
type e2e struct {
	setupS       float64
	timed        int
	windowS      float64
	roundsPerS   float64
	p50, p90     float64
	cpuMsPerRnd  float64
	finalAcc     float64
	upPerRound   float64
	downPerRound float64
	liveHeapMB   float64
	landedFrac   float64
	durations    []float64
	chunkRates   []float64
	chunkCPU     []float64
}

func endToEnd(w *workload, ex *execution, rounds int) e2e {
	var e e2e
	e.timed = rounds - w.warmup
	e.durations = roundDurations(ex.o, w.warmup, rounds)
	e.windowS = ex.to.at.Sub(ex.from.at).Seconds()
	var rates, cpus []float64
	for i := 1; i < len(ex.samples); i++ {
		a, b := ex.samples[i-1], ex.samples[i]
		n := float64(b.round - a.round)
		rates = append(rates, n/b.at.Sub(a.at).Seconds())
		cpus = append(cpus, float64(b.cpu-a.cpu)/1e6/n)
	}
	e.roundsPerS, e.cpuMsPerRnd = medianF(rates), medianF(cpus)
	e.chunkRates, e.chunkCPU = rates, cpus
	e.p50, e.p90 = quantile(e.durations, 0.5), quantile(e.durations, 0.9)
	timed := timedRounds(ex.out.hist, w.warmup)
	e.finalAcc = finalAccuracy(timed)
	var up, down float64
	for _, m := range timed {
		up += float64(m.UpBytes)
		down += float64(m.DownBytes)
	}
	e.upPerRound, e.downPerRound = up/float64(e.timed), down/float64(e.timed)
	e.liveHeapMB = ex.liveHeap
	e.landedFrac = 1
	if ex.dispatched > 0 {
		e.landedFrac = 1 - float64(ex.failed)/float64(ex.dispatched)
	}
	return e
}

// endToEndMetrics lists the metrics BENCHMARK.json names as end_to_end.
// Two of the ten end-to-end metrics are printed but not bounded:
// failed_frac can be exactly zero, so the result line carries its
// complement landed_frac; final_acc differs by seed (each seed draws other
// data), not by timing, so a relative bound on it would judge the seeds.
// Its chance-level check runs on every run instead.
func endToEndMetrics(e e2e) []named {
	return []named{
		{"setup_s", e.setupS, "s", ""},
		{"rounds_per_s", e.roundsPerS, "1/s", ""},
		{"round_ms_p50", e.p50, "ms", ""},
		{"round_ms_p90", e.p90, "ms", ""},
		{"cpu_ms_per_round", e.cpuMsPerRnd, "ms", ""},
		{"up_bytes_per_round", e.upPerRound, "bytes", ""},
		{"down_bytes_per_round", e.downPerRound, "bytes", ""},
		{"live_heap_mb", e.liveHeapMB, "MB", ""},
		{"landed_frac", e.landedFrac, "frac", ""},
	}
}

// finalAccuracy is the mean personalized accuracy over the evaluation
// points of the second half of the timed rounds. A single point of a
// sampled evaluation (fleet-async: 8 clients holding one test example
// each) is an 8-example estimate; the second half pools thousands.
func finalAccuracy(timed []fl.RoundMetrics) float64 {
	tail := timed[len(timed)-max(1, len(timed)/2):]
	var sum float64
	for _, m := range tail {
		sum += m.MeanAcc
	}
	return sum / float64(len(tail))
}

func timedRounds(hist []fl.RoundMetrics, warmup int) []fl.RoundMetrics {
	var out []fl.RoundMetrics
	for _, m := range hist {
		if m.Round > warmup {
			out = append(out, m)
		}
	}
	return out
}

// checkRun verifies the untraced run's outputs.
func checkRun(w *workload, ex *execution, rounds int, e e2e, fail func(string, ...any)) {
	if got := len(ex.out.hist); got != rounds {
		fail("%d evaluation points, want one per configured round (%d)", got, rounds)
	}
	if got := int(ex.o.committed.Load()); got != rounds {
		fail("%d committed rounds, configured %d", got, rounds)
	}
	if ex.out.stats != nil && ex.out.stats.Commits != rounds {
		fail("server node committed %d rounds, configured %d", ex.out.stats.Commits, rounds)
	}
	if len(e.durations) != e.timed {
		fail("%d timed round durations, want %d", len(e.durations), e.timed)
	}
	if chance := 1 / float64(ex.out.classes); math.IsNaN(e.finalAcc) || math.IsInf(e.finalAcc, 0) || e.finalAcc <= chance {
		fail("final_acc %v is not finite and above chance (%v)", e.finalAcc, chance)
	}
	if ex.failed < 0 || ex.failed*2 > ex.dispatched {
		fail("%d of %d dispatched updates did not land", ex.failed, ex.dispatched)
	}
	if w.exactBytes {
		// A fixed cohort of dense frames moves the same bytes every round,
		// so the totals repeat exactly across runs and seeds.
		ms := timedRounds(ex.out.hist, w.warmup)
		for _, m := range ms {
			if m.UpBytes != ms[0].UpBytes || m.DownBytes != ms[0].DownBytes {
				fail("round %d moved %d/%d bytes up/down, round %d moved %d/%d", m.Round, m.UpBytes, m.DownBytes,
					ms[0].Round, ms[0].UpBytes, ms[0].DownBytes)
				break
			}
		}
	}
}

func printEndToEnd(w *workload, ex *execution, e e2e, setups []float64) {
	fmt.Printf("warm-up: %d rounds in %.3f s (excluded from the timed loop)\n",
		w.warmup, ex.from.at.Sub(ex.o.marks[0]).Seconds())
	fmt.Printf("timed loop: %d rounds in %.3f s\n", e.timed, e.windowS)
	fmt.Printf("set-up: median of %d = %.4f s (%s)\n", len(setups), e.setupS, fmtFloats(setups, "%.4f"))
	fmt.Printf("chunk rounds/s: %s\n", fmtFloats(e.chunkRates, "%.2f"))
	fmt.Printf("chunk cpu ms/round: %s\n", fmtFloats(e.chunkCPU, "%.2f"))
	for _, m := range endToEndMetrics(e) {
		note := ""
		switch m.name {
		case "setup_s":
			note = fmt.Sprintf("median, n=%d", len(setups))
		case "round_ms_p50":
			note = fmt.Sprintf("median, n=%d", len(e.durations))
		case "round_ms_p90":
			note = fmt.Sprintf("tail, n=%d, %d rounds beyond", len(e.durations), len(e.durations)/10)
		}
		fmt.Printf("metric %-22s %14.6g %-6s %s\n", m.name, m.value, m.unit, note)
	}
	fmt.Printf("metric %-22s %14.6g %-6s mean over the second half of the timed loop\n", "final_acc", e.finalAcc, "frac")
	fmt.Printf("metric %-22s %14.6g %-6s %d of %d dispatched updates did not land in a commit (%d dropped stale)\n",
		"failed_frac", 1-e.landedFrac, "frac", ex.failed, ex.dispatched, ex.drops)
}

func fmtFloats(xs []float64, f string) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(s, " ")
}

// compareHistories reports the first difference in per-round accuracy or
// bytes between two runs, or "" when they match exactly.
func compareHistories(a, b []fl.RoundMetrics) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d evaluation points", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Round != y.Round || x.UpBytes != y.UpBytes || x.DownBytes != y.DownBytes {
			return fmt.Sprintf("round %d: up/down bytes %d/%d vs %d/%d", x.Round, x.UpBytes, x.DownBytes, y.UpBytes, y.DownBytes)
		}
		if !sameFloat(x.MeanAcc, y.MeanAcc) || len(x.PerClient) != len(y.PerClient) {
			return fmt.Sprintf("round %d: mean accuracy %v vs %v", x.Round, x.MeanAcc, y.MeanAcc)
		}
		for j := range x.PerClient {
			if !sameFloat(x.PerClient[j], y.PerClient[j]) {
				return fmt.Sprintf("round %d: client slot %d accuracy %v vs %v", x.Round, j, x.PerClient[j], y.PerClient[j])
			}
		}
	}
	return ""
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// spanStats sums the spans of the timed rounds by name (and tag, when
// tag is not "*").
type spanStats struct {
	count int
	dur   time.Duration
	self  time.Duration
}

func collect(spans []span, warmup int, name, tag string) spanStats {
	var s spanStats
	for i := range spans {
		sp := &spans[i]
		if sp.Replay || sp.Round <= warmup || sp.Name != name || (tag != "*" && sp.Tag != tag) {
			continue
		}
		s.count++
		s.dur += time.Duration(sp.End - sp.Start)
		s.self += time.Duration(sp.self)
	}
	return s
}

func msPer(d time.Duration, n int) float64 { return float64(d) / 1e6 / float64(n) }

// perLayer computes the per-layer metrics of the traced run tr, with base
// the untraced run of the same seed and rounds.
func perLayer(w *workload, base, tr *execution, rounds int, e e2e) []named {
	spans := tr.o.tr.spans
	T := rounds - w.warmup
	W := w.warmup
	out := tr.out
	var ms []named
	add := func(name string, v float64, unit, note string) { ms = append(ms, named{name, v, unit, note}) }

	// Replay each architecture, then scale by its per-round call counts
	// in the timed rounds: optimizer steps and evaluations.
	archs := make([]*archCost, 0, len(out.replayIDs))
	for _, id := range out.replayIDs {
		archs = append(archs, replayArch(out, id, tr.o.tr))
	}
	archOf := out.archOf
	if archOf == nil {
		name := archs[0].arch
		archOf = func(int) string { return name }
	}
	evals := make(map[string]float64)
	for _, m := range timedRounds(out.hist, W) {
		if m.EvalIDs != nil {
			for _, id := range m.EvalIDs {
				evals[archOf(id)]++
			}
			continue
		}
		for id, acc := range m.PerClient {
			if !math.IsNaN(acc) {
				evals[archOf(id)]++
			}
		}
	}
	var fwd, bwd = make(map[string]float64), make(map[string]float64)
	var ce, supcon, aug, eval, gflop float64
	for _, ac := range archs {
		steps := float64(collect(spans, W, "opt.step", ac.arch).count) / float64(T)
		evalPerRound := evals[ac.arch] / float64(T)
		if ac.steps > 0 {
			per := steps / float64(ac.steps) // replayed epochs per round
			for _, k := range layerKinds {
				fwd[k] += per * float64(ac.fwd[k]) / 1e6
				bwd[k] += per * float64(ac.bwd[k]) / 1e6
			}
			ce += per * float64(ac.ce) / 1e6
			supcon += per * float64(ac.supcon) / 1e6
			aug += per * float64(ac.augment) / 1e6
			views := 1.0
			if out.contrastive {
				views = 2
			}
			gflop += per * float64(ac.examples) * 3 * (views*ac.extFlops + ac.clfFlops) / 1e9
		}
		eval += evalPerRound * float64(ac.eval) / 1e6
		gflop += evalPerRound * float64(ac.testExamples) * (ac.extFlops + ac.clfFlops) / 1e9
	}
	const replayNote = "replay"
	for _, k := range layerKinds {
		add("nn."+k+".fwd_ms", fwd[k], "ms", replayNote)
		add("nn."+k+".bwd_ms", bwd[k], "ms", replayNote)
	}
	add("nn.gflop_per_round", gflop, "GFLOP", "conv+dense FLOPs, training and evaluation")
	add("loss.supcon_ms", supcon, "ms", replayNote)
	add("loss.ce_ms", ce, "ms", replayNote)
	add("data.augment_ms", aug, "ms", replayNote)

	opt := collect(spans, W, "opt.step", "*")
	add("opt.step_ms", msPer(opt.self, T), "ms", "")
	add("opt.steps_per_round", float64(opt.count)/float64(T), "count", "")

	round := collect(spans, W, "fl.engine.round", "")
	between := 0.0
	if round.count > 0 {
		between = tr.windowMs()/float64(T) - msPer(round.dur, T)
	}
	add("fl.engine.round_ms", msPer(round.dur, T), "ms", "sync Round span")
	add("fl.engine.between_ms", between, "ms", "eval + ledger + evict gap between sync rounds")
	add("fl.eval_ms", eval, "ms", replayNote)

	for _, p := range []string{"dispatch", "local", "apply", "commit"} {
		add("fl.engine."+p+"_ms", msPer(collect(spans, W, "fl.engine."+p, "*").self, T), "ms", "self time")
	}
	groupFrac := 0.0
	if n := tr.o.locals.Load(); n > 0 {
		groupFrac = float64(tr.o.grouped.Load()) / float64(n)
	}
	add("fl.engine.group_frac", groupFrac, "frac", "local updates trained in cohort group tasks")
	dropFrac := 0.0
	if tr.dispatched > 0 {
		dropFrac = float64(tr.drops) / float64(tr.dispatched)
	}
	add("fl.engine.stale_drop_frac", dropFrac, "frac", "fl.Trace drops / dispatches")

	builds := collect(spans, W, "fl.store.build", "")
	dispatches := collect(spans, W, "fl.engine.dispatch", "").count
	engaged := float64(dispatches)
	for _, n := range evals {
		engaged += n
	}
	hit := 1.0
	if engaged > 0 {
		hit = 1 - float64(builds.count)/engaged
	}
	add("fl.store.builds_per_round", float64(builds.count)/float64(T), "count", "")
	add("fl.store.build_ms", msPer(builds.self, T), "ms", "")
	add("fl.store.hit_frac", hit, "frac", "engagements (dispatch + eval) served without a build")

	joinS := 0.0
	if at := tr.o.listenAt.Load(); at > 0 {
		joinS = float64(tr.o.setupEnd.Load()-at) / 1e9
	}
	add("fl.node.join_s", joinS, "s", "listen to first dispatch")
	for _, p := range []string{"dispatch", "local", "apply", "commit"} {
		add("fl.node."+p+"_ms", msPer(collect(spans, W, "fl.node."+p, "*").self, T), "ms", "self time")
	}
	var disc, ign, res float64
	if st := out.stats; st != nil {
		disc, ign, res = float64(st.Disconnects), float64(st.Ignored), float64(st.Resends)
	}
	add("fl.node.disconnects", disc, "count", "ServerNode.Stats")
	add("fl.node.ignored", ign, "count", "ServerNode.Stats")
	add("fl.node.resends", res, "count", "ServerNode.Stats")

	enc, dec, frame := 0.0, 0.0, 0.0
	for _, ac := range archs {
		enc += float64(ac.encode) / 1e3 / float64(len(archs))
		dec += float64(ac.decode) / 1e3 / float64(len(archs))
		frame += float64(ac.upFrameBytes) / float64(len(archs))
	}
	add("comm.encode_us", enc, "us", "replay, one upload frame")
	add("comm.decode_us", dec, "us", "replay, one upload frame")
	add("comm.up_frame_bytes", frame, "bytes", "replay, one upload frame")

	send := collect(spans, W, "transport.send", "")
	recv := collect(spans, W, "transport.recv", "client")
	recvWait := 0.0
	if k := clientConns(tr); k > 0 {
		recvWait = msPer(recv.dur, T) / float64(k)
	}
	var hs int64
	if tr.o.tsp != nil {
		_, _, hs = tr.o.tsp.traffic()
	}
	add("transport.send_ms", msPer(send.self, T), "ms", "")
	add("transport.recv_wait_ms", recvWait, "ms", "per client connection")
	add("transport.frames_per_round", float64(tr.to.frames-tr.from.frames)/float64(T), "count", "")
	add("transport.bytes_per_round", float64(tr.to.bytes-tr.from.bytes)/float64(T), "bytes", "")
	add("transport.handshake_bytes", float64(hs), "bytes", "all connections, both directions")

	var dataS, fleetS float64
	setupEnd := tr.o.setupEnd.Load() - tr.o.tr.epoch.UnixNano()
	for _, sp := range spans {
		if sp.Replay || sp.Start >= setupEnd {
			continue
		}
		switch sp.Name {
		case "experiments.data":
			dataS += float64(sp.End-sp.Start) / 1e9
		case "fl.store.build":
			fleetS += float64(sp.End-sp.Start) / 1e9
		}
	}
	add("experiments.data_s", dataS, "s", "data generation + partition")
	add("experiments.fleet_s", fleetS, "s", "client builds before round 1")

	// Go runtime counters come from the untraced run: the tracer allocates.
	gcFrac := 0.0
	if d := base.to.allCPU - base.from.allCPU; d > 0 {
		gcFrac = (base.to.gcCPU - base.from.gcCPU) / d
	}
	add("goruntime.alloc_mb_per_round", (base.to.allocB-base.from.allocB)/1e6/float64(T), "MB", "untraced run")
	add("goruntime.gc_cpu_frac", gcFrac, "frac", "untraced run")
	add("goruntime.gc_cycles_per_round", (base.to.gcCycles-base.from.gcCycles)/float64(T), "count", "untraced run")

	tracedRate := endToEnd(w, tr, rounds).roundsPerS
	add("trace.overhead_frac", 1-tracedRate/e.roundsPerS, "frac", "1 - traced/untraced rounds_per_s")
	attributed := opt.self.Seconds()*1e3/float64(T) + supcon + ce + aug + eval +
		msPer(builds.self, T) + msPer(send.self, T) + gcFrac*e.cpuMsPerRnd
	for _, k := range layerKinds {
		attributed += fwd[k] + bwd[k]
	}
	for _, p := range []string{"dispatch", "apply", "commit"} {
		attributed += msPer(collect(spans, W, "fl.engine."+p, "*").self, T)
		attributed += msPer(collect(spans, W, "fl.node."+p, "*").self, T)
	}
	updates := float64(base.dispatched) / float64(rounds)
	attributed += updates * (enc + dec) / 1e3
	add("trace.coverage_frac", attributed/e.cpuMsPerRnd, "frac", "attributed layer ms / cpu_ms_per_round")
	return ms
}

// windowMs is the timed loop's wall time.
func (ex *execution) windowMs() float64 { return float64(ex.to.at.Sub(ex.from.at)) / 1e6 }

// clientConns counts the client-side connections the transport seam saw.
func clientConns(ex *execution) int {
	if ex.o.tsp == nil {
		return 0
	}
	ex.o.tsp.mu.Lock()
	defer ex.o.tsp.mu.Unlock()
	n := 0
	for _, c := range ex.o.tsp.conns {
		if c.dialed {
			n++
		}
	}
	return n
}
