package fl

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/transport"
)

// PeerTable is the downstream-facing session machinery shared by every
// aggregating role — the root ServerNode and the edge AggregatorNode. It
// owns the accept loop, the handshake greeter, the per-connection reader
// goroutines, the session table with its reconnect-token identity, the
// liveness tick (heartbeats out, hung peers torn down, expired reconnect
// windows surfaced to the role) and the ledger booking of every frame.
// Policy — who may join, what a message means, when a session churns —
// stays with the role; the PeerTable moves bytes and tracks liveness.
//
// Everything here was extracted verbatim from the ServerNode event loop:
// the flat topology's behavior (and wire bytes) are identical to the
// pre-refactor server. All methods except the accept/greet/reader
// goroutines must be called from the role's single event-loop goroutine.
type PeerTable struct {
	// spec and lossy rebuild a fresh decode-side wireCodec for every
	// connection incarnation: delta bases live and die with one connection,
	// so a reconnect decodes densely until a new basis is established —
	// mirroring the peer's encoder, which is rebuilt the same way.
	spec      comm.Spec
	lossy     bool
	heartbeat time.Duration
	deadAfter time.Duration
	window    time.Duration
	ledger    *comm.Ledger
	stats     *NodeStats
	// base offsets session ids: session i carries id base+i (an edge
	// aggregator's sessions are its global child-id range).
	base int
	// validJoin classifies a fresh connection's first frame; anything
	// else is dropped by the greeter.
	validJoin func(*wireMsg) bool

	sessions []*peerSession
	events   chan inbound
	conns    chan acceptedConn
	stop     chan struct{}
	stopOnce sync.Once

	// embryos tracks accepted connections whose join frame has not arrived
	// yet, so shutdown can unblock their greeter goroutines.
	embryoMu sync.Mutex
	embryos  map[transport.Conn]struct{}

	tokenRng *rand.Rand
	lastBeat time.Time
}

// peerSession is one downstream peer's server-side session: the identity
// that survives connection loss. conn is nil while the peer is
// disconnected; gen increments every time the connection changes so stale
// reader events are recognizable.
type peerSession struct {
	id      int
	token   uint64
	conn    transport.Conn
	gen     int
	joined  bool
	churned bool
	// lastSeen is the last time any frame arrived (liveness).
	lastSeen time.Time
	// downAt is when the connection was lost (reconnect-window clock).
	downAt time.Time
	// busy marks an outstanding dispatch; dispVersion is the model version
	// it was stamped with, and pendingDispatch caches the encoded frame for
	// resend on adoption (WireDispatch may consume state — KT-pFL — so the
	// payload cannot be regenerated).
	busy            bool
	dispVersion     uint64
	pendingDispatch []byte
	// pendingEval caches an outstanding evaluation request for resend on
	// adoption when the frame carries more than the round number (the tree
	// roles' id lists); nil means re-encode the plain request.
	pendingEval []byte
	// stopped marks that the session's peer acknowledged its stop frame:
	// the session is complete, and a subsequent EOF from the closing peer
	// is an orderly goodbye, not a disconnect to wait out.
	stopped bool
}

// inbound is one reader-goroutine delivery: a decoded message or the error
// that ended the connection. gen stamps which incarnation of the session's
// connection produced it, so events from an abandoned connection are
// discarded instead of corrupting the session that replaced it.
type inbound struct {
	id   int
	gen  int
	msg  *wireMsg
	wire int64
	err  error
}

// stale reports whether ev arrived on a connection s has since abandoned;
// such events are dropped. A stop ack still completes the session, whichever
// connection carried it: the peer got its goodbye and is exiting. Under a
// loaded event loop a heartbeat can hit that peer's closed socket before
// the queued ack is handled, and dropping the ack would then wait out the
// reconnect window and churn a peer that finished cleanly.
func (s *peerSession) stale(ev inbound) bool {
	if ev.gen == s.gen {
		return false
	}
	if ev.err == nil && ev.msg.kind == msgStopAck {
		s.stopped = true
	}
	return true
}

// acceptedConn is one accept-loop delivery: a handshaken connection with
// either its decoded join frame (fresh peer) or the session token it
// presented in the transport hello (reconnecting peer), or the error that
// ended accepting.
type acceptedConn struct {
	conn  transport.Conn
	token uint64
	join  *wireMsg
	wire  int64
	err   error
}

// newPeerTable builds a table of count sessions carrying ids base..base+count-1.
func newPeerTable(count, base int, spec comm.Spec, lossy bool, heartbeat, deadAfter, window time.Duration,
	tokenSeed int64, ledger *comm.Ledger, stats *NodeStats, validJoin func(*wireMsg) bool) *PeerTable {
	pt := &PeerTable{
		spec:      spec,
		lossy:     lossy,
		heartbeat: heartbeat,
		deadAfter: deadAfter,
		window:    window,
		ledger:    ledger,
		stats:     stats,
		base:      base,
		validJoin: validJoin,
		sessions:  make([]*peerSession, count),
		events:    make(chan inbound, 8*count+32),
		conns:     make(chan acceptedConn, count+8),
		stop:      make(chan struct{}),
		embryos:   make(map[transport.Conn]struct{}),
	}
	for i := range pt.sessions {
		pt.sessions[i] = &peerSession{id: base + i}
	}
	// Tokens come from a stream disjoint from cohort sampling, and the high
	// bit is forced so a token is never zero (zero means "fresh dial").
	pt.tokenRng = rand.New(rand.NewSource(tokenSeed ^ 0x746f6b656e)) // "token"
	return pt
}

// sessionByID maps a global peer id back to its session.
func (pt *PeerTable) sessionByID(id int) *peerSession { return pt.sessions[id-pt.base] }

// shutdown releases everything the event loop owns: the stop channel
// unblocks deliveries, closing embryo and session connections unblocks
// their goroutines' reads.
func (pt *PeerTable) shutdown() {
	pt.stopOnce.Do(func() { close(pt.stop) })
	pt.embryoMu.Lock()
	for c := range pt.embryos {
		c.Close()
	}
	pt.embryos = map[transport.Conn]struct{}{}
	pt.embryoMu.Unlock()
	for _, s := range pt.sessions {
		if s.conn != nil {
			s.conn.Close()
		}
	}
}

func (pt *PeerTable) trackEmbryo(c transport.Conn) {
	pt.embryoMu.Lock()
	pt.embryos[c] = struct{}{}
	pt.embryoMu.Unlock()
}

func (pt *PeerTable) forgetEmbryo(c transport.Conn) {
	pt.embryoMu.Lock()
	delete(pt.embryos, c)
	pt.embryoMu.Unlock()
}

// Accept-failure policy: one bad peer (failed handshake) is routine, but a
// stream of errors means the listener itself is sick — back off between
// failures and give up after a bound rather than spinning forever.
const (
	maxAcceptFailures = 1000
	acceptBackoff     = 10 * time.Millisecond
)

// acceptLoop feeds handshaken connections into the event loop until the
// listener dies.
func (pt *PeerTable) acceptLoop(ln transport.Listener) {
	failures := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				pt.deliverConn(acceptedConn{err: err})
				return
			}
			failures++
			if failures >= maxAcceptFailures {
				pt.deliverConn(acceptedConn{err: fmt.Errorf("fl: %d consecutive accept failures, last: %w", failures, err)})
				return
			}
			select {
			case <-time.After(acceptBackoff):
			case <-pt.stop:
				return
			}
			continue
		}
		failures = 0
		pt.trackEmbryo(conn)
		go pt.greet(conn)
	}
}

// greet classifies one accepted connection. A nonzero hello token is a
// reconnect claim, forwarded immediately; a fresh connection must produce
// a valid join frame within joinTimeout or be dropped (a
// handshaken-but-silent peer must not pin the federation).
func (pt *PeerTable) greet(conn transport.Conn) {
	if tok := conn.Hello().Token; tok != 0 {
		pt.deliverConn(acceptedConn{conn: conn, token: tok})
		return
	}
	conn.SetReadDeadline(time.Now().Add(joinTimeout))
	frame, wire, err := conn.Recv()
	if err != nil {
		pt.forgetEmbryo(conn)
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	m, err := decodeMsg(frame)
	if err != nil || !pt.validJoin(m) {
		pt.forgetEmbryo(conn)
		conn.Close()
		return
	}
	pt.deliverConn(acceptedConn{conn: conn, join: m, wire: wire})
}

func (pt *PeerTable) deliverConn(ac acceptedConn) {
	select {
	case pt.conns <- ac:
	case <-pt.stop:
		if ac.conn != nil {
			pt.forgetEmbryo(ac.conn)
			ac.conn.Close()
		}
	}
}

// reader pumps one connection's messages into the event loop until the
// connection dies. Each reader owns a fresh wireCodec: the delta bases a
// connection's uploads accumulate are discarded with the connection, so an
// adopted reconnect starts dense — exactly as the peer's rebuilt encoder
// does.
func (pt *PeerTable) reader(id, gen int, conn transport.Conn) {
	wc := newWireCodec(pt.spec, pt.lossy)
	deliver := func(ev inbound) bool {
		select {
		case pt.events <- ev:
			return true
		case <-pt.stop:
			return false
		}
	}
	for {
		frame, wire, err := conn.Recv()
		if err != nil {
			deliver(inbound{id: id, gen: gen, err: err})
			return
		}
		m, err := decodeMsgWc(frame, wc)
		if err != nil {
			deliver(inbound{id: id, gen: gen, err: err})
			return
		}
		if !deliver(inbound{id: id, gen: gen, msg: m, wire: wire}) {
			return
		}
	}
}

// attach wires a handshaken connection to a session: connection ownership,
// generation bump, handshake-byte booking, reader spawn. Both the fresh
// join and the adoption path go through here.
func (pt *PeerTable) attach(s *peerSession, conn transport.Conn, joinWire int64) {
	s.conn = conn
	s.gen++
	s.lastSeen = time.Now()
	hsSent, hsRecv := conn.HandshakeBytes()
	pt.ledger.AddUp(s.id, joinWire+hsRecv)
	if hsSent > 0 {
		pt.ledger.AddDown(s.id, hsSent)
	}
	go pt.reader(s.id, s.gen, conn)
}

// issueTokens draws every session's reconnect token from the dedicated
// stream, in session order.
func (pt *PeerTable) issueTokens() {
	for _, s := range pt.sessions {
		s.token = pt.tokenRng.Uint64() | 1<<63
	}
}

func (pt *PeerTable) findToken(token uint64) *peerSession {
	for _, s := range pt.sessions {
		if s.joined && s.token == token {
			return s
		}
	}
	return nil
}

// refuse rejects a connection with an explanatory error message.
func (pt *PeerTable) refuse(conn transport.Conn, reason string) {
	conn.Send(encodeMsg(&wireMsg{kind: msgErr, name: reason}, nil))
	conn.Close()
}

// send writes one frame to a session, booking the wire bytes on success
// and downgrading the session to disconnected on failure. A write deadline
// bounds the attempt so a peer with a full socket buffer cannot wedge the
// event loop.
func (pt *PeerTable) send(s *peerSession, frame []byte) bool {
	if s.conn == nil {
		return false
	}
	s.conn.SetWriteDeadline(time.Now().Add(pt.deadAfter))
	wire, err := s.conn.Send(frame)
	if err != nil {
		pt.markDisconnected(s)
		return false
	}
	s.conn.SetWriteDeadline(time.Time{})
	pt.ledger.AddDown(s.id, wire)
	return true
}

// markDisconnected tears down a session's connection, starting its
// reconnect-window clock. Owed state (pending dispatch, eval slot) is
// preserved for replay on adoption.
func (pt *PeerTable) markDisconnected(s *peerSession) {
	if s.conn == nil {
		return
	}
	s.conn.Close()
	s.conn = nil
	s.gen++
	s.downAt = time.Now()
	pt.stats.Disconnects++
}

// churnSession permanently retires a session: cohorts skip it, its
// evaluation slot stays NaN. Returns false if it was already churned.
// Role-level cleanup (open barriers, subtree bookkeeping) is the caller's.
func (pt *PeerTable) churnSession(s *peerSession) bool {
	if s.churned {
		return false
	}
	s.churned = true
	pt.stats.Churned++
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
		s.gen++
	}
	s.busy = false
	s.pendingDispatch = nil
	s.pendingEval = nil
	return true
}

// pendingStops reports whether any live session still owes its peer a
// stop frame.
func (pt *PeerTable) pendingStops() bool {
	for _, s := range pt.sessions {
		if !s.churned && !s.stopped {
			return true
		}
	}
	return false
}

// tick runs the failure discipline: heartbeats out (stamped with the
// role's committed version), hung peers torn down, expired reconnect
// windows surfaced to the role's churn policy.
func (pt *PeerTable) tick(version uint64, onChurn func(*peerSession)) {
	now := time.Now()
	beat := now.Sub(pt.lastBeat) >= pt.heartbeat
	if beat {
		pt.lastBeat = now
	}
	var hb []byte
	for _, s := range pt.sessions {
		if s.churned || s.stopped {
			continue
		}
		if s.conn != nil {
			if now.Sub(s.lastSeen) > pt.deadAfter {
				// Silent past the dead interval: hung, not slow — a slow peer
				// would at least be echoing heartbeats.
				pt.markDisconnected(s)
			} else if beat {
				if hb == nil {
					hb = encodeMsg(&wireMsg{kind: msgHeartbeat, a: version}, nil)
				}
				pt.send(s, hb)
			}
		}
		if s.conn == nil && !s.downAt.IsZero() && now.Sub(s.downAt) > pt.window {
			onChurn(s)
		}
	}
}
