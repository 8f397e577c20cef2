package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/transport"
)

// This file wraps the public seams the program already exposes — the
// algorithm interfaces, the client optimizer, the client builder and the
// transport — so a run can be clocked and traced from outside without
// touching program code. Every wrapper forwards exactly the optional
// interfaces its inner value implements: the program type-asserts them
// (checkpointable optimizers for lazy-fleet spill, LossyUploads for top-k
// and delta framing, AsyncAlgorithm/GroupLocalAlgorithm for cohort
// batching, SessionDialer for reconnects), and a wrapper that dropped one
// would measure a different program.

// errProbe ends a set-up probe at the first round, before any training.
var errProbe = errors.New("roundbench: set-up probe complete")

// observer is the per-run state the seams report into: the round clock,
// the tracer (nil when untraced) and the counters the checks need.
type observer struct {
	tr     *tracer
	probe  bool
	cancel context.CancelFunc

	start    time.Time // set-up start
	setupEnd atomic.Int64
	setup    sync.Once

	// committed counts finished rounds; marks[t] is the wall time round t
	// finished (marks[0] = set-up end).
	committed atomic.Int64
	mu        sync.Mutex
	marks     []time.Time
	onMark    func(t int)

	dispatched atomic.Int64 // updates sent to clients
	applied    atomic.Int64 // updates folded into server state
	grouped    atomic.Int64 // updates trained inside a cohort group task
	locals     atomic.Int64 // updates trained (solo or grouped)
	listenAt   atomic.Int64 // unix ns of the server listen (node path)
	tsp        *transportSeam
}

func newObserver(traced, probe bool, cancel context.CancelFunc) *observer {
	o := &observer{probe: probe, cancel: cancel, start: time.Now()}
	if traced {
		o.tr = newTracer(func() int { return int(o.committed.Load()) + 1 })
	}
	return o
}

// setupDone latches the end of set-up at the first round's first action.
// A probe cancels the run there and reports errProbe.
func (o *observer) setupDone() error {
	o.setup.Do(func() {
		now := time.Now()
		o.setupEnd.Store(now.UnixNano())
		o.mu.Lock()
		o.marks = append(o.marks[:0], now)
		o.mu.Unlock()
		if o.probe && o.cancel != nil {
			o.cancel()
		}
	})
	if o.probe {
		return errProbe
	}
	return nil
}

// mark records that round t finished now.
func (o *observer) mark(t int) {
	now := time.Now()
	o.mu.Lock()
	for len(o.marks) <= t {
		o.marks = append(o.marks, time.Time{})
	}
	o.marks[t] = now
	o.mu.Unlock()
	o.committed.Store(int64(t))
	if o.onMark != nil {
		o.onMark(t)
	}
}

func (o *observer) setupSeconds() float64 {
	return float64(o.setupEnd.Load()-o.start.UnixNano()) / 1e9
}

// fullAlgorithm is every interface the evaluation's weight-sharing
// algorithms (FedAvg, FedClassAvg) implement; groupAlgorithm adds cohort
// batching, which only some of them offer.
type fullAlgorithm interface {
	fl.AsyncAlgorithm
	fl.CheckpointableAlgorithm
	fl.ReducibleWireAlgorithm
	LossyUploads() bool
}

type groupAlgorithm interface {
	fullAlgorithm
	fl.GroupLocalAlgorithm
}

// algoSeam clocks and traces an algorithm. prefix names the engine whose
// spans it records: "fl.engine" in process, "fl.node" on the wire.
type algoSeam struct {
	inner  fullAlgorithm
	o      *observer
	prefix string
}

// groupSeam is algoSeam for algorithms that batch cohorts.
type groupSeam struct {
	*algoSeam
	group groupAlgorithm
}

// wrapAlgorithm returns a seam implementing exactly the optional
// interfaces a implements, or an error when a implements a combination the
// seam cannot mirror.
func wrapAlgorithm(a fl.Algorithm, o *observer, prefix string) (fl.WireAlgorithm, error) {
	full, ok := a.(fullAlgorithm)
	if !ok {
		return nil, fmt.Errorf("roundbench: %s does not implement the async, wire, checkpoint and lossy-upload interfaces; the seam cannot wrap it transparently", a.Name())
	}
	s := &algoSeam{inner: full, o: o, prefix: prefix}
	if g, ok := a.(groupAlgorithm); ok {
		return &groupSeam{algoSeam: s, group: g}, nil
	}
	return s, nil
}

func (s *algoSeam) Name() string                   { return s.inner.Name() }
func (s *algoSeam) EpochsPerRound() int            { return s.inner.EpochsPerRound() }
func (s *algoSeam) LossyUploads() bool             { return s.inner.LossyUploads() }
func (s *algoSeam) Setup(sim *fl.Simulation) error { return s.inner.Setup(sim) }

// Round is the sync engine's whole round; entering round t closes round t-1.
func (s *algoSeam) Round(sim *fl.Simulation, round int, participants []int) error {
	if round == 1 {
		if err := s.o.setupDone(); err != nil {
			return err
		}
	} else {
		s.o.mark(round - 1)
	}
	end := s.o.tr.begin(s.prefix+".round", "")
	err := s.inner.Round(sim, round, participants)
	end()
	if err == nil {
		s.o.dispatched.Add(int64(len(participants)))
		s.o.applied.Add(int64(len(participants)))
		s.o.locals.Add(int64(len(participants)))
	}
	return err
}

func (s *algoSeam) AsyncSetup(sim *fl.Simulation, sched *fl.SchedulerConfig) error {
	return s.inner.AsyncSetup(sim, sched)
}

func (s *algoSeam) AsyncDispatch(sim *fl.Simulation, client int) error {
	if err := s.o.setupDone(); err != nil {
		return err
	}
	end := s.o.tr.begin(s.prefix+".dispatch", "")
	defer end()
	s.o.dispatched.Add(1)
	return s.inner.AsyncDispatch(sim, client)
}

func (s *algoSeam) AsyncLocal(sim *fl.Simulation, client int) (*fl.Update, error) {
	end := s.o.tr.begin(s.prefix+".local", "")
	defer end()
	s.o.locals.Add(1)
	return s.inner.AsyncLocal(sim, client)
}

func (s *algoSeam) AsyncApply(sim *fl.Simulation, u *fl.Update) error {
	end := s.o.tr.begin(s.prefix+".apply", "")
	defer end()
	s.o.applied.Add(1)
	return s.inner.AsyncApply(sim, u)
}

// AsyncCommit completes one virtual round; entering commit t closes round
// t (the commit-to-commit interval holds one evaluation, like a sync
// round).
func (s *algoSeam) AsyncCommit(sim *fl.Simulation) error {
	s.o.mark(int(s.o.committed.Load()) + 1)
	end := s.o.tr.begin(s.prefix+".commit", "")
	defer end()
	return s.inner.AsyncCommit(sim)
}

func (s *algoSeam) AlgoSnapshot(sim *fl.Simulation) (*fl.AlgoState, error) {
	return s.inner.AlgoSnapshot(sim)
}

func (s *algoSeam) AlgoRestore(sim *fl.Simulation, st *fl.AlgoState) error {
	return s.inner.AlgoRestore(sim, st)
}

func (s *algoSeam) WireInit(c *fl.Client) ([][]float64, error) { return s.inner.WireInit(c) }

func (s *algoSeam) WireSetup(joins []fl.WireJoin, shards int) error {
	return s.inner.WireSetup(joins, shards)
}

func (s *algoSeam) WireDispatch(client int) ([][]float64, error) {
	if err := s.o.setupDone(); err != nil {
		return nil, err
	}
	end := s.o.tr.begin(s.prefix+".dispatch", "")
	defer end()
	s.o.dispatched.Add(1)
	return s.inner.WireDispatch(client)
}

func (s *algoSeam) WireLocal(c *fl.Client, batchSize int, dispatch [][]float64) (*fl.Update, error) {
	end := s.o.tr.begin(s.prefix+".local", "")
	defer end()
	s.o.locals.Add(1)
	return s.inner.WireLocal(c, batchSize, dispatch)
}

func (s *algoSeam) WireApply(u *fl.Update) error {
	end := s.o.tr.begin(s.prefix+".apply", "")
	defer end()
	s.o.applied.Add(1)
	return s.inner.WireApply(u)
}

func (s *algoSeam) WireCommit() error {
	end := s.o.tr.begin(s.prefix+".commit", "")
	defer end()
	return s.inner.WireCommit()
}

func (s *algoSeam) PreReduce(updates []*fl.Update) (*fl.AggUpdate, error) {
	return s.inner.PreReduce(updates)
}

func (s *algoSeam) WireApplyAggregate(u *fl.AggUpdate) error {
	return s.inner.WireApplyAggregate(u)
}

func (s *groupSeam) GroupLocal() bool { return s.group.GroupLocal() }

func (s *groupSeam) AsyncLocalGroup(sim *fl.Simulation, clients []int) ([]*fl.Update, error) {
	end := s.o.tr.begin(s.prefix+".local", "group")
	defer end()
	s.o.locals.Add(int64(len(clients)))
	s.o.grouped.Add(int64(len(clients)))
	return s.group.AsyncLocalGroup(sim, clients)
}

// optSeam times every optimizer step, tagged with the client's
// architecture so replays can be scaled per architecture.
type optSeam struct {
	inner opt.Optimizer
	o     *observer
	arch  string
}

// ckptOptSeam is optSeam for checkpointable optimizers: the lazy fleet
// spills optimizer state through opt.Checkpointable.
type ckptOptSeam struct {
	*optSeam
	ckpt opt.Checkpointable
}

func wrapOptimizer(inner opt.Optimizer, o *observer, arch string) opt.Optimizer {
	s := &optSeam{inner: inner, o: o, arch: arch}
	if c, ok := inner.(opt.Checkpointable); ok {
		return &ckptOptSeam{optSeam: s, ckpt: c}
	}
	return s
}

func (s *optSeam) Step(params []*nn.Param) {
	end := s.o.tr.begin("opt.step", s.arch)
	s.inner.Step(params)
	end()
}

func (s *ckptOptSeam) State() opt.State            { return s.ckpt.State() }
func (s *ckptOptSeam) SetState(st opt.State) error { return s.ckpt.SetState(st) }

// wrapBuilder times client materializations and installs the optimizer
// seam on every client it builds. An untraced run keeps the builder as is.
func wrapBuilder(b experiments.ClientBuilder, o *observer) experiments.ClientBuilder {
	if o.tr == nil {
		return b
	}
	return func(i int) *fl.Client {
		end := o.tr.begin("fl.store.build", "")
		c := b(i)
		end()
		if c.Optimizer != nil {
			c.Optimizer = wrapOptimizer(c.Optimizer, o, c.Model.Name)
		}
		return c
	}
}

// transportSeam times sends and receive waits on every connection it
// makes or accepts. It forwards transport.SessionDialer, which reconnects
// use to present their session token.
type transportSeam struct {
	inner interface {
		transport.Transport
		transport.SessionDialer
	}
	o *observer

	mu    sync.Mutex
	conns []*connSeam
}

func wrapTransport(tr transport.Transport, o *observer) (*transportSeam, error) {
	full, ok := tr.(interface {
		transport.Transport
		transport.SessionDialer
	})
	if !ok {
		return nil, fmt.Errorf("roundbench: transport %s has no SessionDialer; the seam cannot wrap it transparently", tr.Name())
	}
	o.tsp = &transportSeam{inner: full, o: o}
	return o.tsp, nil
}

func (t *transportSeam) Name() string { return t.inner.Name() }

func (t *transportSeam) Listen(addr string) (transport.Listener, error) {
	t.o.listenAt.Store(time.Now().UnixNano())
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &listenerSeam{Listener: ln, t: t}, nil
}

func (t *transportSeam) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := t.inner.Dial(ctx, addr)
	return t.track(c, err, true)
}

func (t *transportSeam) DialSession(ctx context.Context, addr string, token uint64) (transport.Conn, error) {
	c, err := t.inner.DialSession(ctx, addr, token)
	return t.track(c, err, true)
}

func (t *transportSeam) track(c transport.Conn, err error, dialed bool) (transport.Conn, error) {
	if err != nil {
		return nil, err
	}
	cs := &connSeam{Conn: c, o: t.o, dialed: dialed}
	t.mu.Lock()
	t.conns = append(t.conns, cs)
	t.mu.Unlock()
	return cs, nil
}

// traffic sums what every tracked connection moved.
func (t *transportSeam) traffic() (frames, bytes, handshake int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.conns {
		frames += c.frames.Load()
		bytes += c.bytes.Load()
		hs, _ := c.HandshakeBytes()
		handshake += hs
	}
	return frames, bytes, handshake
}

type listenerSeam struct {
	transport.Listener
	t *transportSeam
}

func (l *listenerSeam) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	return l.t.track(c, err, false)
}

// connSeam counts frames and bytes per send and times sends and blocking
// receives. Client-side (dialed) receive waits are tagged "client".
type connSeam struct {
	transport.Conn
	o      *observer
	dialed bool
	frames atomic.Int64
	bytes  atomic.Int64
}

func (c *connSeam) Send(frame []byte) (int64, error) {
	end := c.o.tr.begin("transport.send", "")
	n, err := c.Conn.Send(frame)
	end()
	c.frames.Add(1)
	c.bytes.Add(n)
	return n, err
}

func (c *connSeam) Recv() ([]byte, int64, error) {
	tag := "server"
	if c.dialed {
		tag = "client"
	}
	end := c.o.tr.begin("transport.recv", tag)
	b, n, err := c.Conn.Recv()
	end()
	return b, n, err
}
