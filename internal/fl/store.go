package fl

import (
	"container/list"
	"fmt"
	"sort"
	"sync"

	"repro/internal/models"
	"repro/internal/nn"
)

// ClientStore backs a lazy virtual fleet: clients exist as a compact id
// space [0,n) and materialize on demand through a builder that constructs
// client i as a pure function of i (experiments.ClientBuilder). At most
// budget clients stay resident in an LRU (clients pinned in flight may
// briefly exceed it).
//
// Evicting a client parks it rather than dropping it. Its model's flat
// parameters and batch-norm buffers are copied into pooled spill vectors,
// the model is detached into a shell pool, and the *Client itself stays
// in the store with its optimizer moments, RNG source and data slices in
// place. A later Get copies the spilled vectors back into a recycled shell
// of an equal models.Config and zeroes its gradients, which reproduces the
// client bit for bit: every other piece of model state is a layer cache
// that the next Forward overwrites before anything reads it. Shells are
// keyed by the comparable models.Config because a model's layer structure
// is a function of its configuration, so any shell of that configuration
// fits. The shell pool holds at most budget models. The builder runs only
// for never-materialized ids, shell misses (then only its model is kept)
// and records restored from a checkpoint.
//
// Two kinds of client still take the rebuild path, through a ClientState
// record in the checkpoint format: records restored by RestoreTouched, and
// clients whose model contains a Dropout layer, whose private RNG stream
// would otherwise follow the shell to another client. Such a record's Get
// builds a fresh client and restores the state into it.
//
// Every materialized client is treated as dirty (its model spills on
// eviction even if it only evaluated); tracking cleanliness would save
// spill space but risk missing a mutation path, and the parked set is
// bounded by the touched set — O(rounds · cohort) — regardless of n.
type ClientStore struct {
	mu       sync.Mutex
	n        int
	build    func(int) *Client
	budget   int // max resident clients and max pooled shells; <= 0 means unbounded
	resident map[int]*list.Element
	lru      *list.List // of *Client; front = most recently used
	parked   map[int]parkedClient
	spill    map[int]*ClientState
	shells   map[models.Config][]*models.SplitModel
	nshells  int
	pool     bufferPool
	// claims holds the ids a Get is materializing outside the lock; a
	// concurrent Get of a claimed id waits on published and then finds the
	// client resident.
	claims    map[int]struct{}
	published *sync.Cond
}

// parkedClient is an evicted client whose model went back to the shell
// pool. Only the model's parameters and buffers left the client.
type parkedClient struct {
	c       *Client
	model   bool          // c had a model when it was parked
	cfg     models.Config // the detached model's configuration
	params  []float64
	buffers []float64
}

// NewClientStore builds a store over n virtual clients.
func NewClientStore(n int, build func(int) *Client, budget int) *ClientStore {
	st := &ClientStore{
		n:        n,
		build:    build,
		budget:   budget,
		resident: make(map[int]*list.Element),
		lru:      list.New(),
		parked:   make(map[int]parkedClient),
		spill:    make(map[int]*ClientState),
		shells:   make(map[models.Config][]*models.SplitModel),
		claims:   make(map[int]struct{}),
	}
	st.published = sync.NewCond(&st.mu)
	return st
}

// Len returns the virtual fleet size.
func (st *ClientStore) Len() int { return st.n }

// Resident returns how many clients are currently materialized.
func (st *ClientStore) Resident() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lru.Len()
}

// Get returns client id, materializing it if it is not resident: a parked
// client gets its model back, a spilled one is rebuilt and restored, and a
// never-touched one is built. Safe to call concurrently; concurrent Gets
// of one id all return the same client. The result stays resident at
// least until the next EvictToBudget.
func (st *ClientStore) Get(id int) *Client {
	if id < 0 || id >= st.n {
		panic(fmt.Sprintf("fl: client id %d out of fleet range [0,%d)", id, st.n))
	}
	st.mu.Lock()
	for {
		if el, ok := st.resident[id]; ok {
			st.lru.MoveToFront(el)
			c := el.Value.(*Client)
			st.mu.Unlock()
			return c
		}
		if _, busy := st.claims[id]; !busy {
			break
		}
		st.published.Wait()
	}
	st.claims[id] = struct{}{}
	p, parked := st.parked[id]
	delete(st.parked, id)
	cs := st.spill[id]
	delete(st.spill, id)
	var shell *models.SplitModel
	if parked && p.model {
		shell = st.takeShellLocked(p.cfg)
	}
	st.mu.Unlock()

	// Heavy work runs outside the lock so a cohort materializes in parallel.
	var c *Client
	switch {
	case parked:
		c = st.unpark(id, &p, shell)
	case cs != nil:
		c = st.build(id)
		if err := restoreClientState(c, cs); err != nil {
			// The builder is a pure function of id, so a shape/dtype mismatch
			// with state this store captured itself is an invariant violation,
			// not a recoverable condition.
			panic(fmt.Sprintf("fl: rehydrating client %d: %v", id, err))
		}
	default:
		c = st.build(id)
	}

	st.mu.Lock()
	if parked {
		st.pool.put(p.params)
		st.pool.put(p.buffers)
	}
	if cs != nil {
		st.pool.put(cs.Params)
		st.pool.put(cs.Buffers)
	}
	st.resident[id] = st.lru.PushFront(c)
	delete(st.claims, id)
	st.published.Broadcast()
	st.mu.Unlock()
	return c
}

// unpark reattaches a model to a parked client: the given shell, or on a
// shell miss the model of a fresh build. Parameters and buffers are copied
// back and gradients zeroed, as in a fresh build.
func (st *ClientStore) unpark(id int, p *parkedClient, m *models.SplitModel) *Client {
	if !p.model {
		return p.c
	}
	if m == nil {
		m = st.build(id).Model
	}
	params := m.Params()
	if err := nn.SetFlatParams(params, p.params); err != nil {
		panic(fmt.Sprintf("fl: rehydrating client %d parameters: %v", id, err))
	}
	if err := nn.SetFlatBuffers(m.Buffers(), p.buffers); err != nil {
		panic(fmt.Sprintf("fl: rehydrating client %d buffers: %v", id, err))
	}
	nn.ZeroGrads(params)
	p.c.Model = m
	return p.c
}

// EvictToBudget parks least-recently-used clients until the resident
// count is within budget, skipping clients the scheduler still holds in
// flight (pinned). A nil pinned means nothing is pinned.
func (st *ClientStore) EvictToBudget(pinned func(id int) bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.budget <= 0 {
		return nil
	}
	for el := st.lru.Back(); el != nil && st.lru.Len() > st.budget; {
		prev := el.Prev()
		c := el.Value.(*Client)
		if pinned == nil || !pinned(c.ID) {
			if err := st.parkLocked(c); err != nil {
				return err
			}
			st.lru.Remove(el)
			delete(st.resident, c.ID)
		}
		el = prev
	}
	return nil
}

// parkLocked evicts c: its model's parameters and buffers go to pooled
// spill vectors and the model to the shell pool. A model with a Dropout
// layer is never recycled; its client spills a full ClientState instead.
func (st *ClientStore) parkLocked(c *Client) error {
	m := c.Model
	if m != nil && nn.ContainsDropout(m.Extractor) {
		params := st.pool.get(nn.NumParams(m.Params()))
		buffers := st.pool.get(nn.NumBuffered(m.Buffers()))
		cs, err := captureClientState(c, params, buffers)
		if err != nil {
			return fmt.Errorf("fl: spilling client %d: %w", c.ID, err)
		}
		st.spill[c.ID] = &cs
		return nil
	}
	p := parkedClient{c: c}
	if m != nil {
		params, bufs := m.Params(), m.Buffers()
		p.model, p.cfg = true, m.Cfg
		p.params = nn.AppendFlatParams(st.pool.get(nn.NumParams(params)), params)
		p.buffers = nn.AppendFlatBuffers(st.pool.get(nn.NumBuffered(bufs)), bufs)
		c.Model = nil
		if st.nshells < st.budget {
			st.shells[m.Cfg] = append(st.shells[m.Cfg], m)
			st.nshells++
		}
	}
	st.parked[c.ID] = p
	return nil
}

// takeShellLocked removes and returns a pooled shell of configuration cfg,
// or nil when there is none.
func (st *ClientStore) takeShellLocked(cfg models.Config) *models.SplitModel {
	s := st.shells[cfg]
	if len(s) == 0 {
		return nil
	}
	m := s[len(s)-1]
	s[len(s)-1] = nil
	st.shells[cfg] = s[:len(s)-1]
	st.nshells--
	return m
}

// CaptureTouched snapshots every client this store has ever materialized —
// resident ones freshly, parked and spilled ones by copy — sorted by id,
// into unpooled buffers a checkpoint may own indefinitely. Untouched
// clients carry no state beyond their id (they are reproduced by the
// builder), so they are deliberately absent.
func (st *ClientStore) CaptureTouched() ([]ClientState, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]ClientState, 0, len(st.resident)+len(st.parked)+len(st.spill))
	for _, cs := range st.spill {
		out = append(out, ClientState{
			ID:      cs.ID,
			Params:  CloneVec(cs.Params),
			Buffers: CloneVec(cs.Buffers),
			Rng:     cs.Rng,
			Opt:     cs.Opt,
		})
	}
	for _, p := range st.parked {
		// The detached client has no model, so this captures its RNG and
		// optimizer; the model state comes from the spill vectors.
		cs, err := captureClientState(p.c, nil, nil)
		if err != nil {
			return nil, err
		}
		cs.Params, cs.Buffers = CloneVec(p.params), CloneVec(p.buffers)
		out = append(out, cs)
	}
	for el := st.lru.Front(); el != nil; el = el.Next() {
		cs, err := captureClientState(el.Value.(*Client), nil, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out, nil
}

// RestoreTouched resets the store to hold exactly the given touched-client
// states (cloned into the spill map); every resident and parked client is
// dropped, so the next Get of any id rebuilds and rehydrates from the
// checkpoint.
func (st *ClientStore) RestoreTouched(states []ClientState) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, cs := range st.spill {
		st.pool.put(cs.Params)
		st.pool.put(cs.Buffers)
	}
	for _, p := range st.parked {
		st.pool.put(p.params)
		st.pool.put(p.buffers)
	}
	st.spill = make(map[int]*ClientState, len(states))
	st.parked = make(map[int]parkedClient)
	st.resident = make(map[int]*list.Element)
	st.lru.Init()
	for i := range states {
		cs := &states[i]
		if cs.ID < 0 || cs.ID >= st.n {
			return fmt.Errorf("fl: checkpoint references client %d of a %d-client fleet", cs.ID, st.n)
		}
		st.spill[cs.ID] = &ClientState{
			ID:      cs.ID,
			Params:  CloneVec(cs.Params),
			Buffers: CloneVec(cs.Buffers),
			Rng:     cs.Rng,
			Opt:     cs.Opt,
		}
	}
	return nil
}

// bufferPool recycles spill vectors bucketed by exact length. Every vector
// of one model configuration has the same length, so a fleet reuses a few
// buckets and no vector carries slack capacity. Callers hold the store
// lock.
type bufferPool struct {
	buckets map[int][][]float64
}

// get returns an empty vector with capacity exactly n (nil for n <= 0).
func (p *bufferPool) get(n int) []float64 {
	if n <= 0 {
		return nil
	}
	if s := p.buckets[n]; len(s) > 0 {
		buf := s[len(s)-1]
		p.buckets[n] = s[:len(s)-1]
		return buf[:0]
	}
	return make([]float64, 0, n)
}

func (p *bufferPool) put(buf []float64) {
	c := cap(buf)
	if c == 0 {
		return
	}
	if p.buckets == nil {
		p.buckets = make(map[int][][]float64)
	}
	p.buckets[c] = append(p.buckets[c], buf[:0])
}
