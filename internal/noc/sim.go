package noc

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
)

// Config parameterizes the interconnect simulator. The configurable
// parameters mirror Noxim's (buffer size, network size, packet size, routing
// per topology) plus the paper's extensions (neuromorphic topologies,
// multicast, SNN metrics via the delivery trace).
type Config struct {
	// Kind is the interconnect topology (Tree for CxQuad, Mesh for
	// TrueNorth-like chips).
	Kind Kind
	// Endpoints is the number of crossbars attached to the interconnect.
	Endpoints int
	// MeshWidth fixes the mesh width; 0 selects the squarest grid.
	MeshWidth int
	// TreeArity is the tree fan-out (default 2).
	TreeArity int
	// BufferDepth is the input-port FIFO capacity in packets (default 4).
	BufferDepth int
	// PacketFlits is the AER packet size in flits (default 1).
	PacketFlits int
	// CyclesPerMs converts SNN milliseconds to interconnect clock cycles
	// (default 10000, i.e. a 10 MHz interconnect against a 1 ms timestep).
	CyclesPerMs int64
	// Multicast enables multicast packets; when false every destination
	// crossbar receives its own unicast packet (ablation of the paper's
	// multicast extension).
	Multicast bool
	// HopEnergyPJ is the energy per flit per link traversal.
	HopEnergyPJ float64
	// RouterEnergyPJ is the energy per flit per router traversal.
	RouterEnergyPJ float64
	// StallLimit aborts the simulation if no event occurs for this many
	// consecutive cycles while packets remain (deadlock/livelock guard;
	// default 1e6).
	StallLimit int64
}

// DefaultConfig returns the reference configuration for the given topology
// and crossbar count: 4-deep buffers, single-flit AER packets, multicast on,
// 10 000 cycles per ms, and energy constants calibrated in
// internal/hardware.
func DefaultConfig(kind Kind, endpoints int) Config {
	return Config{
		Kind:           kind,
		Endpoints:      endpoints,
		TreeArity:      2,
		BufferDepth:    4,
		PacketFlits:    1,
		CyclesPerMs:    10000,
		Multicast:      true,
		HopEnergyPJ:    1.8,
		RouterEnergyPJ: 0.9,
		StallLimit:     1_000_000,
	}
}

func (c *Config) applyDefaults() {
	if c.TreeArity == 0 {
		c.TreeArity = 2
	}
	if c.BufferDepth == 0 {
		c.BufferDepth = 4
	}
	if c.PacketFlits == 0 {
		c.PacketFlits = 1
	}
	if c.CyclesPerMs == 0 {
		c.CyclesPerMs = 10000
	}
	if c.StallLimit == 0 {
		c.StallLimit = 1_000_000
	}
}

// Packet is one AER spike transfer request: a spike of SrcNeuron emitted at
// CreatedMs must reach every crossbar in Dst.
type Packet struct {
	// SrcNeuron is the global index of the spiking neuron.
	SrcNeuron int32
	// Src is the crossbar (endpoint) hosting the neuron.
	Src int
	// Dst marks every crossbar that hosts at least one post-synaptic
	// neuron of SrcNeuron outside Src.
	Dst Mask
	// CreatedMs is the spike time in SNN milliseconds.
	CreatedMs int64
}

// Source is the compact form of a spike train's traffic: every spike of
// SrcNeuron at the times in SpikesMs sends Repeat identical packets from
// Src to every crossbar in Dst. It stands for len(SpikesMs)·Repeat
// packets, injected in spike, then repeat order (and, with multicast off,
// one unicast per destination in ascending order), exactly as if each had
// been passed to Inject in that order.
type Source struct {
	SrcNeuron int32
	Src       int
	Dst       Mask
	// SpikesMs are the spike times in SNN milliseconds, ascending. The
	// simulator reads but never modifies them (nor Dst), so one immutable
	// spike train may back many sources and concurrent replays.
	SpikesMs []int64
	// Repeat is the number of packets per spike (the synapse
	// multiplicity under per-synapse AER); at least 1.
	Repeat int
}

// Delivery records one packet arrival at one destination crossbar.
type Delivery struct {
	SrcNeuron    int32
	Src, Dst     int
	CreatedMs    int64
	CreatedCycle int64
	ArriveCycle  int64
}

// Latency returns the spike's interconnect latency in cycles, from emission
// to arrival (including AER encoder queueing).
func (d Delivery) Latency() int64 { return d.ArriveCycle - d.CreatedCycle }

// Stats aggregates interconnect-level results, the "conventional metrics"
// of paper §II.
type Stats struct {
	Injected   int64   // packets entering the network
	Delivered  int64   // packet arrivals (multicast counts per destination)
	PacketHops int64   // link traversals
	EnergyPJ   float64 // total interconnect energy
	Cycles     int64   // last event cycle
	AvgLatency float64 // mean delivery latency in cycles
	MaxLatency int64   // worst-case delivery latency in cycles
	// ThroughputPerMs is delivered packets per simulated millisecond.
	ThroughputPerMs float64
}

// Result bundles the aggregate statistics with the full delivery trace
// needed by the SNN metrics.
type Result struct {
	Stats      Stats
	Deliveries []Delivery
}

// cancelCheckEvery is the event-loop iteration stride between
// cancellation polls when a context is set (SetContext). 1024 active
// cycles of work is well under a millisecond on every supported
// topology, so per-request timeouts observe cancellation promptly.
const cancelCheckEvery = 1024

// flight is a packet in the network. Multicast flights fork at routing
// divergence points; Dst always holds the destinations still to be served
// by this flight. Flights are pooled on the simulator's free-list so the
// hot loop does not allocate per split.
type flight struct {
	srcNeuron    int32
	src          int
	dst          Mask
	createdMs    int64
	createdCycle int64
}

// arrival is a scheduled buffer insertion after a link traversal.
type arrival struct {
	cycle  int64
	router int
	port   int
	f      *flight
	seq    int64 // tie-break for deterministic ordering
}

// arrivalQueue orders arrivals by (cycle, seq). Every link traversal takes
// exactly PacketFlits cycles and the clock never runs backwards, so
// arrivals are pushed with non-decreasing cycles and unique increasing
// seqs — push order IS (cycle, seq) order, and a FIFO ring replaces the
// priority queue the general case would need (no sift, no boxing).
type arrivalQueue struct {
	buf  []arrival
	head int
}

func (q *arrivalQueue) empty() bool     { return q.head == len(q.buf) }
func (q *arrivalQueue) front() *arrival { return &q.buf[q.head] }

func (q *arrivalQueue) push(a arrival) {
	if q.head == len(q.buf) {
		// Drained: rewind so steady-state traffic reuses the buffer
		// instead of growing it by the run's total hop count.
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 1024 && q.head >= len(q.buf)-q.head {
		// Popped slots outnumber live ones: compact so a run that never
		// fully drains (a saturated storm) keeps the queue at
		// O(outstanding arrivals), not O(total hops). Order-preserving
		// and O(1) amortized.
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i].f = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, a)
}

func (q *arrivalQueue) pop() arrival {
	a := q.buf[q.head]
	q.buf[q.head].f = nil // release the flight to the free-list's ownership
	q.head++
	return a
}

func (q *arrivalQueue) reset() {
	for i := q.head; i < len(q.buf); i++ {
		q.buf[i].f = nil
	}
	q.buf = q.buf[:0]
	q.head = 0
}

// fifo is one input-port buffer: a fixed-capacity ring over BufferDepth
// slots, so FIFO traffic never reallocates (a slice with pop-front
// re-slicing exhausts its capacity every few operations and churns the
// allocator).
type fifo struct {
	items []*flight
	head  int32
	n     int32
}

func (f *fifo) front() *flight { return f.items[f.head] }

func (f *fifo) push(x *flight) {
	i := int(f.head) + int(f.n)
	if i >= len(f.items) {
		i -= len(f.items)
	}
	f.items[i] = x
	f.n++
}

func (f *fifo) pop() *flight {
	x := f.items[f.head]
	f.items[f.head] = nil
	f.head++
	if int(f.head) >= len(f.items) {
		f.head = 0
	}
	f.n--
	return x
}

// Simulator is a single-shot interconnect simulation: construct, add the
// traffic as spike sources (AddSource, or Inject for single packets), then
// Run; Reset makes it reusable. Create with NewSimulator.
//
// Injection streams: each endpoint's network interface is a lazy merge of
// its sources — a binary min-heap keyed by (next spike cycle, source
// index) — and a flight is built only when a packet enters the local
// input FIFO, so replay memory is O(sources + packets in flight), not
// O(packets). The replay core is event-driven in the Noxim tradition:
// routers are visited only while they hold buffered packets (an
// active-router worklist), idle stretches are skipped by jumping to the
// next event time (earliest of link arrivals, link-free expirations and
// due injections), and routing decisions are word-level mask operations
// against per-router, per-port destination masks instead of per-endpoint
// scans, memoized per FIFO head so arbitration touches only ports with an
// actual candidate. The observable behavior — statistics, delivery trace
// and its order, cycle counts — is bit-identical to a dense per-cycle
// scan (see TestReplayMatchesReference).
type Simulator struct {
	cfg  Config
	topo topology
	// nr and np cache topo.Routers()/Ports() so the hot loop performs no
	// interface calls.
	nr, np int

	// Router state, indexed [router][port].
	fifos    [][]fifo  // input FIFOs
	reserved [][]int   // credits held by in-flight packets
	rr       [][]int   // round-robin pointer per output port
	linkFree [][]int64 // cycle at which the output link is free

	// headWants[r][in] is a bitmask over output ports wanted by the head
	// flight of input FIFO in at router r (0 when empty); portWanted[r][p]
	// is its transpose, a bitmask over input FIFOs whose head wants output
	// port p. Both are recomputed only when a FIFO's head flight changes
	// (push to empty, pop, or in-place destination update), so per-cycle
	// arbitration reduces to bit scans over actual candidates. Routers
	// wider than 64 ports (a star-like tree whose arity tracks the
	// crossbar count) don't fit the word; wide marks them and arbitration
	// falls back to the dense input scan for correctness.
	headWants  [][]uint64
	portWanted [][]uint64
	wide       bool

	// sources holds the traffic in AddSource order, each with its
	// injection cursor; ni[ep] is endpoint ep's NI queue over them.
	// injectTimes backs the one-spike sources Inject adds. All three keep
	// their capacity across Reset.
	sources     []source
	ni          []niHeap
	injectTimes []int64

	arrivals  arrivalQueue
	nextSeq   int64
	result    Result
	endpointR []int // endpoint -> router
	routerE   []int // router -> endpoint or -1

	// routeTable[r][dst] caches topology.Route for O(1) lookups.
	routeTable [][]uint8
	// portMask[r][p] marks every endpoint whose route at router r leaves
	// through port p, so "does this flight want port p" is a word-wise
	// Intersects and a multicast split is one IntersectInto. Immutable
	// after construction, shared by Fork.
	portMask [][]Mask
	// neighR/neighP cache topology.Neighbor per (router, port); -1 marks
	// an unwired port. Immutable after construction, shared by Fork.
	neighR [][]int
	neighP [][]int

	// buffered[r] counts packets sitting in router r's input FIFOs;
	// active marks routers with buffered > 0 so arbitration visits only
	// them, in ascending router order.
	buffered []int
	active   Mask

	// free is the flight free-list: fully delivered flights are recycled
	// (mask storage included) so multicast splits do not allocate.
	free []*flight

	// sink, when set, receives every Delivery in arrival order instead of
	// the Result accumulating the trace.
	sink func(Delivery)

	// ctx, when set via SetContext, bounds Run: the event loop polls its
	// Done channel every cancelCheckEvery iterations, so cancellation
	// latency is one event batch, not a whole replay.
	ctx context.Context

	// ran guards against state corruption from Run-after-Run or
	// AddSource-after-Run without an intervening Reset.
	ran bool
}

// NewSimulator validates the configuration and builds the topology.
func NewSimulator(cfg Config) (*Simulator, error) {
	cfg.applyDefaults()
	if cfg.Endpoints < 1 {
		return nil, fmt.Errorf("noc: need at least 1 endpoint, got %d", cfg.Endpoints)
	}
	if cfg.BufferDepth < 1 {
		return nil, fmt.Errorf("noc: buffer depth %d < 1", cfg.BufferDepth)
	}
	if cfg.PacketFlits < 1 {
		return nil, fmt.Errorf("noc: packet size %d < 1 flit", cfg.PacketFlits)
	}
	var topo topology
	var err error
	switch cfg.Kind {
	case Mesh:
		topo, err = newMesh(cfg.Endpoints, cfg.MeshWidth)
	case Tree:
		topo, err = newTree(cfg.Endpoints, cfg.TreeArity)
	default:
		err = fmt.Errorf("noc: unknown topology kind %d", cfg.Kind)
	}
	if err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, topo: topo}
	nr, np := topo.Routers(), topo.Ports()
	s.nr, s.np = nr, np
	s.allocMutableState()
	s.endpointR = make([]int, cfg.Endpoints)
	s.routerE = make([]int, nr)
	for r := range s.routerE {
		s.routerE[r] = -1
	}
	for ep := 0; ep < cfg.Endpoints; ep++ {
		r := topo.EndpointRouter(ep)
		s.endpointR[ep] = r
		s.routerE[r] = ep
	}
	s.routeTable = make([][]uint8, nr)
	s.portMask = make([][]Mask, nr)
	s.neighR = make([][]int, nr)
	s.neighP = make([][]int, nr)
	for r := 0; r < nr; r++ {
		s.routeTable[r] = make([]uint8, cfg.Endpoints)
		s.portMask[r] = make([]Mask, np)
		for p := 0; p < np; p++ {
			s.portMask[r][p] = NewMask(cfg.Endpoints)
		}
		for d := 0; d < cfg.Endpoints; d++ {
			p := topo.Route(r, d)
			s.routeTable[r][d] = uint8(p)
			s.portMask[r][p].Set(d)
		}
		s.neighR[r] = make([]int, np)
		s.neighP[r] = make([]int, np)
		for p := 0; p < np; p++ {
			s.neighR[r][p], s.neighP[r][p] = topo.Neighbor(r, p)
		}
	}
	return s, nil
}

// allocMutableState builds the per-run router state (FIFOs, credits,
// round-robin pointers, link timers, worklist).
func (s *Simulator) allocMutableState() {
	nr, np := s.nr, s.np
	s.wide = np > 64
	depth := s.cfg.BufferDepth
	s.fifos = make([][]fifo, nr)
	s.reserved = make([][]int, nr)
	s.rr = make([][]int, nr)
	s.linkFree = make([][]int64, nr)
	s.headWants = make([][]uint64, nr)
	s.portWanted = make([][]uint64, nr)
	slots := make([]*flight, nr*np*depth) // one backing array for all rings
	for r := 0; r < nr; r++ {
		s.fifos[r] = make([]fifo, np)
		for p := 0; p < np; p++ {
			s.fifos[r][p].items = slots[:depth:depth]
			slots = slots[depth:]
		}
		s.reserved[r] = make([]int, np)
		s.rr[r] = make([]int, np)
		s.linkFree[r] = make([]int64, np)
		s.headWants[r] = make([]uint64, np)
		s.portWanted[r] = make([]uint64, np)
	}
	s.buffered = make([]int, nr)
	s.active = NewMask(nr)
	s.ni = make([]niHeap, s.cfg.Endpoints)
}

// Fork returns a fresh simulator sharing this simulator's immutable parts
// — configuration, topology, route and port-mask tables and endpoint
// wiring — with its own zeroed packet state. Forking skips the topology
// and route-table construction (the expensive part of NewSimulator), so a
// warm mapping session can hand each concurrent run its own simulator at
// the cost of a few state slices. Fork only reads immutable fields and is
// therefore safe to call even while the receiver is mid-simulation.
func (s *Simulator) Fork() *Simulator {
	n := &Simulator{
		cfg:        s.cfg,
		topo:       s.topo,
		nr:         s.nr,
		np:         s.np,
		endpointR:  s.endpointR,
		routerE:    s.routerE,
		routeTable: s.routeTable,
		portMask:   s.portMask,
		neighR:     s.neighR,
		neighP:     s.neighP,
	}
	n.allocMutableState()
	return n
}

// Reset returns the simulator to its post-construction state so it can
// be reused for another injection + Run cycle. The topology, route table
// and configuration are retained (they are the expensive parts to
// build); all packet state, statistics, the delivery trace and any
// delivery sink are cleared. One simulator per worker can therefore serve
// both placement distance queries and repeated traffic replays.
func (s *Simulator) Reset() {
	for r := range s.fifos {
		for p := range s.fifos[r] {
			q := &s.fifos[r][p]
			for i := range q.items {
				q.items[i] = nil
			}
			q.head, q.n = 0, 0
			s.reserved[r][p] = 0
			s.rr[r][p] = 0
			s.linkFree[r][p] = 0
			s.headWants[r][p] = 0
			s.portWanted[r][p] = 0
		}
		s.buffered[r] = 0
	}
	for i := range s.active {
		s.active[i] = 0
	}
	clear(s.sources) // drop references to the callers' spike trains and masks
	s.sources = s.sources[:0]
	for ep := range s.ni {
		s.ni[ep] = s.ni[ep][:0]
	}
	s.injectTimes = s.injectTimes[:0]
	s.arrivals.reset()
	s.nextSeq = 0
	s.result = Result{}
	s.sink = nil
	s.ctx = nil
	s.ran = false
}

// route returns the cached output port at router r toward endpoint dst.
func (s *Simulator) route(r, dst int) int { return int(s.routeTable[r][dst]) }

// HopDistance returns the link count on the route between two endpoints.
func (s *Simulator) HopDistance(a, b int) (int, error) {
	if a < 0 || a >= s.cfg.Endpoints || b < 0 || b >= s.cfg.Endpoints {
		return 0, fmt.Errorf("noc: endpoint out of range (%d, %d)", a, b)
	}
	return s.topo.HopDistance(a, b), nil
}

// SetContext bounds the next Run by ctx: the event loop polls for
// cancellation every cancelCheckEvery iterations and Run then returns an
// error wrapping ctx.Err(), leaving the simulator in need of a Reset
// (like any aborted run). A nil ctx (the default) disables the polling
// entirely — the hot loop pays nothing. Set it after construction or
// Reset and before Run; Reset clears it.
func (s *Simulator) SetContext(ctx context.Context) { s.ctx = ctx }

// SetDeliverySink streams every Delivery to fn, in arrival order, instead
// of accumulating the trace on the Result (Result.Deliveries stays empty;
// the aggregate Stats are unaffected). Aggregate-only callers use it to
// skip the trace allocation entirely. Set it after construction or Reset
// and before Run; Reset clears the sink.
func (s *Simulator) SetDeliverySink(fn func(Delivery)) { s.sink = fn }

// allocFlight draws a flight from the free-list (or allocates one) with
// the given origin and an empty destination mask.
func (s *Simulator) allocFlight(srcNeuron int32, src int, createdMs, createdCycle int64) *flight {
	var f *flight
	if n := len(s.free); n > 0 {
		f = s.free[n-1]
		s.free = s.free[:n-1]
		for i := range f.dst {
			f.dst[i] = 0
		}
	} else {
		f = &flight{dst: NewMask(s.cfg.Endpoints)}
	}
	f.srcNeuron = srcNeuron
	f.src = src
	f.createdMs = createdMs
	f.createdCycle = createdCycle
	return f
}

// freeFlight returns a fully served flight (empty mask) to the free-list.
func (s *Simulator) freeFlight(f *flight) { s.free = append(s.free, f) }

// updateHeadWants recomputes the want-mask of input FIFO in at router r
// after its head flight changed (push to empty, pop, or an in-place
// destination mutation) and keeps the portWanted transpose in sync.
func (s *Simulator) updateHeadWants(r, in int) {
	if s.wide {
		return // wide routers use the dense input scan, no memo to keep
	}
	var want uint64
	if q := &s.fifos[r][in]; q.n > 0 {
		f := q.front()
		pmR := s.portMask[r]
		for p := 0; p < s.np; p++ {
			if f.dst.Intersects(pmR[p]) {
				want |= 1 << uint(p)
			}
		}
	}
	old := s.headWants[r][in]
	s.headWants[r][in] = want
	inBit := uint64(1) << uint(in)
	for changed := old ^ want; changed != 0; {
		p := bits.TrailingZeros64(changed)
		changed &^= 1 << uint(p)
		if want&(1<<uint(p)) != 0 {
			s.portWanted[r][p] |= inBit
		} else {
			s.portWanted[r][p] &^= inBit
		}
	}
}

// Inject queues one spike packet for transmission: a one-spike Source.
// The destination mask must not include the source and must address valid
// endpoints. Injecting after Run is an error; Reset the simulator first.
func (s *Simulator) Inject(p Packet) error {
	// The spike time lives in a simulator-owned buffer that Reset keeps,
	// so a warm Inject does not allocate.
	s.injectTimes = append(s.injectTimes, p.CreatedMs)
	k := len(s.injectTimes)
	err := s.AddSource(Source{SrcNeuron: p.SrcNeuron, Src: p.Src, Dst: p.Dst, SpikesMs: s.injectTimes[k-1 : k], Repeat: 1})
	if err != nil {
		s.injectTimes = s.injectTimes[:k-1]
	}
	return err
}

// AddSource queues a source's packets for transmission. Its spike times
// must be non-negative and ascending, Repeat at least 1, and its
// destination mask non-empty, within range and without the source. A
// source without spikes adds nothing. The simulator keeps src.SpikesMs and
// src.Dst (without copying) until Reset. Adding after Run is an error;
// Reset the simulator first.
func (s *Simulator) AddSource(src Source) error {
	if s.ran {
		return errors.New("noc: AddSource after Run would corrupt the next replay; call Reset first")
	}
	if src.Src < 0 || src.Src >= s.cfg.Endpoints {
		return fmt.Errorf("noc: source endpoint %d out of range", src.Src)
	}
	if src.Dst.Empty() {
		return errors.New("noc: source with empty destination mask")
	}
	bad := -1
	src.Dst.ForEach(func(i int) {
		if i >= s.cfg.Endpoints || i == src.Src {
			bad = i
		}
	})
	if bad >= 0 {
		return fmt.Errorf("noc: invalid destination %d for source %d", bad, src.Src)
	}
	if src.Repeat < 1 {
		return fmt.Errorf("noc: source repeat %d < 1", src.Repeat)
	}
	for k, t := range src.SpikesMs {
		if t < 0 {
			return errors.New("noc: negative creation time")
		}
		if k > 0 && t < src.SpikesMs[k-1] {
			return fmt.Errorf("noc: spike times not ascending at index %d", k)
		}
	}
	if len(src.SpikesMs) > 0 {
		s.sources = append(s.sources, source{Source: src, dst: src.Dst.First()})
	}
	return nil
}

// source is a queued Source with its injection cursor: the next packet
// to inject is repeat rep of spike SpikesMs[spike] (to unicast
// destination dst when multicast is off).
type source struct {
	Source
	spike, rep, dst int
}

// niEntry is a source in its endpoint's NI queue, keyed by the cycle of
// its next spike; the source index breaks ties, so the merge injects in
// (creation cycle, AddSource order) order.
type niEntry struct {
	cycle int64
	src   int
}

// niHeap is one endpoint's NI queue: a binary min-heap of niEntry.
type niHeap []niEntry

func (h niHeap) less(i, j int) bool {
	return h[i].cycle < h[j].cycle || (h[i].cycle == h[j].cycle && h[i].src < h[j].src)
}

// down restores the heap order below i after h[i]'s key grew (or h[i]
// was replaced by the last entry).
func (h niHeap) down(i int) {
	for {
		least, l := i, 2*i+1
		if l < len(h) && h.less(l, least) {
			least = l
		}
		if r := l + 1; r < len(h) && h.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// nextFlight builds the flight for the packet at the top of endpoint ep's
// NI queue and advances that source's cursor: unicast destination first,
// then repeat, then spike. Only a spike advance changes the source's key.
func (s *Simulator) nextFlight(ep int) *flight {
	h := &s.ni[ep]
	top := &(*h)[0]
	src := &s.sources[top.src]
	f := s.allocFlight(src.SrcNeuron, src.Src, src.SpikesMs[src.spike], top.cycle)
	if s.cfg.Multicast {
		copy(f.dst, src.Dst)
	} else {
		f.dst.Set(src.dst)
		if d := src.Dst.next(src.dst + 1); d >= 0 {
			src.dst = d
			return f
		}
		src.dst = src.Dst.First()
	}
	if src.rep++; src.rep < src.Repeat {
		return f
	}
	src.rep = 0
	if src.spike++; src.spike < len(src.SpikesMs) {
		top.cycle = src.SpikesMs[src.spike] * s.cfg.CyclesPerMs
	} else {
		last := len(*h) - 1
		(*h)[0] = (*h)[last]
		*h = (*h)[:last]
	}
	h.down(0)
	return f
}

// Run executes the simulation to completion and returns the aggregate
// statistics with the full delivery trace. Run may only be called once
// per injection cycle — a second Run without an intervening Reset returns
// an error instead of silently replaying corrupted state.
func (s *Simulator) Run() (*Result, error) {
	if s.ran {
		return nil, errors.New("noc: Run already called on this simulator; call Reset before running again")
	}
	s.ran = true
	var done <-chan struct{}
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return nil, fmt.Errorf("noc: replay not started: %w", err)
		}
		done = s.ctx.Done()
	}
	var iter uint

	// Queue every source on its endpoint's NI heap. The packet count and
	// the total delivery count (each flight serves exactly its
	// destinations) follow from the sources, so the trace buffer is
	// allocated once at its final size.
	endpoints := s.cfg.Endpoints
	var remaining, totalDst int64
	for i := range s.sources {
		src := &s.sources[i]
		s.ni[src.Src] = append(s.ni[src.Src], niEntry{cycle: src.SpikesMs[0] * s.cfg.CyclesPerMs, src: i})
		packets, dsts := int64(len(src.SpikesMs)*src.Repeat), int64(src.Dst.Count())
		totalDst += packets * dsts
		if !s.cfg.Multicast {
			packets *= dsts // one unicast flight per destination
		}
		remaining += packets
	}
	for _, h := range s.ni {
		for i := len(h)/2 - 1; i >= 0; i-- {
			h.down(i)
		}
	}
	inFlight := int64(0)

	s.result.Stats.Injected = remaining
	if s.sink == nil && totalDst > 0 {
		s.result.Deliveries = make([]Delivery, 0, totalDst)
	}

	var now int64
	var lastEvent int64
	var totalLatency int64
	flits := int64(s.cfg.PacketFlits)
	np := s.np
	depth := s.cfg.BufferDepth

	nextInjection := func() int64 {
		next := int64(-1)
		for _, h := range s.ni {
			if len(h) > 0 {
				c := h[0].cycle
				if next < 0 || c < next {
					next = c
				}
			}
		}
		return next
	}

	if n := nextInjection(); n > 0 {
		now = n
	}

	for remaining > 0 || inFlight > 0 || !s.arrivals.empty() {
		// One poll per cancelCheckEvery iterations: each iteration is one
		// active cycle (or one time jump), so an event batch bounds the
		// cancellation latency while the steady-state loop stays free of
		// channel operations.
		if iter++; done != nil && iter%cancelCheckEvery == 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("noc: replay canceled at cycle %d with %d packets outstanding: %w",
					now, remaining+inFlight, s.ctx.Err())
			default:
			}
		}
		progressed := false

		// 1. Buffer insertions for completed link traversals.
		for !s.arrivals.empty() && s.arrivals.front().cycle <= now {
			a := s.arrivals.pop()
			q := &s.fifos[a.router][a.port]
			q.push(a.f)
			s.reserved[a.router][a.port]--
			s.buffered[a.router]++
			s.active.Set(a.router)
			if q.n == 1 {
				s.updateHeadWants(a.router, a.port)
			}
			progressed = true
		}

		// 2. Injection: one packet per endpoint per cycle into the local
		// input port, respecting buffer depth.
		if remaining > 0 {
			for ep := 0; ep < endpoints; ep++ {
				if h := s.ni[ep]; len(h) == 0 || h[0].cycle > now {
					continue
				}
				r := s.endpointR[ep]
				q := &s.fifos[r][localPort]
				if int(q.n)+s.reserved[r][localPort] >= depth {
					continue
				}
				q.push(s.nextFlight(ep))
				s.buffered[r]++
				s.active.Set(r)
				if q.n == 1 {
					s.updateHeadWants(r, localPort)
				}
				remaining--
				inFlight++
				progressed = true
			}
		}

		// 3. Arbitration over the active-router worklist (ascending router
		// order, matching a dense scan): each output port forwards at most
		// one packet per cycle, chosen round-robin across the input ports
		// whose head flight wants it (portWanted bit scan). Buffers only
		// grow in phases 1–2, so the worklist is fixed here; routers
		// drained to empty drop out.
		for wi := 0; wi < len(s.active); wi++ {
			w := s.active[wi]
			for w != 0 {
				bit := bits.TrailingZeros64(w)
				w &^= 1 << uint(bit)
				r := wi<<6 + bit
				if s.buffered[r] == 0 {
					s.active.Clear(r)
					continue
				}
				fifoR := s.fifos[r]
				lfR := s.linkFree[r]
				rrR := s.rr[r]
				pmR := s.portMask[r]
				wantedR := s.portWanted[r]
				wide := s.wide
				for p := 0; p < np; p++ {
					if lfR[p] > now || (!wide && wantedR[p] == 0) {
						continue
					}
					granted := -1
					// Candidates in round-robin order: inputs >= rr[p]
					// ascending, then the wrap-around below it. Narrow
					// routers scan the portWanted bitmask; wide ones
					// (>64 ports) fall back to probing every input.
					rot := uint(rrR[p])
					m := wantedR[p]
					for k := 0; ; k++ {
						var in int
						if !wide {
							if m == 0 {
								break
							}
							if upper := m & (^uint64(0) << rot); upper != 0 {
								in = bits.TrailingZeros64(upper)
							} else {
								in = bits.TrailingZeros64(m)
							}
							m &^= 1 << uint(in)
						} else {
							if k >= np {
								break
							}
							in = int(rot) + k
							if in >= np {
								in -= np
							}
						}
						q := &fifoR[in]
						if wide && q.n == 0 {
							continue
						}
						f := q.front()
						if wide && !f.dst.Intersects(pmR[p]) {
							continue
						}
						if p == localPort {
							// Delivery to the endpoint attached here.
							ep := s.routerE[r]
							s.deliver(f, ep, now)
							totalLatency += now - f.createdCycle
							f.dst.Clear(ep)
							s.result.Stats.EnergyPJ += float64(flits) * s.cfg.RouterEnergyPJ
							if f.dst.Empty() {
								q.pop()
								s.buffered[r]--
								inFlight--
								s.freeFlight(f)
							}
							s.updateHeadWants(r, in)
							granted = in
							break
						}
						// Forward the sub-flight routed via port p.
						nr, npIn := s.neighR[r][p], s.neighP[r][p]
						if nr < 0 {
							continue // unwired port; cannot happen with valid routes
						}
						if int(s.fifos[nr][npIn].n)+s.reserved[nr][npIn] >= depth {
							continue // back-pressure
						}
						var sub *flight
						if f.dst.SubsetOf(pmR[p]) {
							// Every remaining destination leaves through p:
							// move the flight itself, no allocation.
							sub = f
							q.pop()
							s.buffered[r]--
							inFlight--
						} else {
							sub = s.allocFlight(f.srcNeuron, f.src, f.createdMs, f.createdCycle)
							sub.dst.IntersectInto(f.dst, pmR[p])
							f.dst.AndNot(sub.dst)
						}
						s.updateHeadWants(r, in)
						s.reserved[nr][npIn]++
						inFlight++
						s.nextSeq++
						s.arrivals.push(arrival{
							cycle: now + flits, router: nr, port: npIn,
							f: sub, seq: s.nextSeq,
						})
						lfR[p] = now + flits
						s.result.Stats.PacketHops++
						s.result.Stats.EnergyPJ += float64(flits) * (s.cfg.HopEnergyPJ + s.cfg.RouterEnergyPJ)
						granted = in
						break
					}
					if granted >= 0 {
						rrR[p] = granted + 1
						if rrR[p] >= np {
							rrR[p] = 0
						}
						progressed = true
					}
				}
				if s.buffered[r] == 0 {
					s.active.Clear(r)
				}
			}
		}

		if progressed {
			lastEvent = now
			s.result.Stats.Cycles = now
			now++
			if inFlight == 0 && s.arrivals.empty() {
				if remaining == 0 {
					break
				}
				if n := nextInjection(); n > now {
					now = n
				}
			}
			continue
		}

		// No progress this cycle. A dense scan would re-run every cycle
		// until the stall guard trips; state only changes when an arrival
		// completes, a busy link frees, or a pending injection comes due,
		// so jumping straight to the earliest such event is equivalent.
		if now-lastEvent > s.cfg.StallLimit {
			return nil, s.stallError(remaining + inFlight)
		}
		if inFlight == 0 && s.arrivals.empty() {
			// Idle network with packets still pending: fast-forward to the
			// next injection (remaining > 0 by the loop condition).
			now++
			if n := nextInjection(); n > now {
				now = n
			}
			continue
		}
		next := int64(-1)
		if !s.arrivals.empty() {
			next = s.arrivals.front().cycle
		}
		for wi := 0; wi < len(s.active); wi++ {
			w := s.active[wi]
			for w != 0 {
				bit := bits.TrailingZeros64(w)
				w &^= 1 << uint(bit)
				r := wi<<6 + bit
				if s.buffered[r] == 0 {
					s.active.Clear(r)
					continue
				}
				for p := 0; p < np; p++ {
					if lf := s.linkFree[r][p]; lf > now && (next < 0 || lf < next) {
						next = lf
					}
				}
			}
		}
		if remaining > 0 {
			for _, h := range s.ni {
				if len(h) > 0 {
					if c := h[0].cycle; c > now && (next < 0 || c < next) {
						next = c
					}
				}
			}
		}
		if next < 0 || next-lastEvent > s.cfg.StallLimit+1 {
			// No event can unblock the network before the dense scan's
			// stall guard would trip at lastEvent+StallLimit+1.
			return nil, s.stallError(remaining + inFlight)
		}
		now = next
	}

	st := &s.result.Stats
	if st.Delivered > 0 {
		st.AvgLatency = float64(totalLatency) / float64(st.Delivered)
	}
	if st.Cycles > 0 && s.cfg.CyclesPerMs > 0 {
		st.ThroughputPerMs = float64(st.Delivered) * float64(s.cfg.CyclesPerMs) / float64(st.Cycles)
	}
	// Return a copy so a held Result survives a later Reset + Run cycle:
	// Reset replaces s.result wholesale, so the copied Deliveries slice
	// stays owned by the caller.
	res := s.result
	return &res, nil
}

func (s *Simulator) stallError(outstanding int64) error {
	return fmt.Errorf("noc: no progress for %d cycles with %d packets outstanding (deadlock?)", s.cfg.StallLimit, outstanding)
}

func (s *Simulator) deliver(f *flight, ep int, now int64) {
	d := Delivery{
		SrcNeuron:    f.srcNeuron,
		Src:          f.src,
		Dst:          ep,
		CreatedMs:    f.createdMs,
		CreatedCycle: f.createdCycle,
		ArriveCycle:  now,
	}
	if s.sink != nil {
		s.sink(d)
	} else {
		s.result.Deliveries = append(s.result.Deliveries, d)
	}
	s.result.Stats.Delivered++
	if lat := now - f.createdCycle; lat > s.result.Stats.MaxLatency {
		s.result.Stats.MaxLatency = lat
	}
}
