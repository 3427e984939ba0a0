package noc

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refFlight is the seed's flight: the production core no longer numbers
// its flights (a lazy per-endpoint merge replaced the global sort by id),
// so the reference keeps its own copy of the numbered type.
type refFlight struct {
	id           int64
	srcNeuron    int32
	src          int
	dst          Mask
	createdMs    int64
	createdCycle int64
}

// refArrival is a scheduled buffer insertion of a refFlight.
type refArrival struct {
	cycle  int64
	router int
	port   int
	f      *refFlight
	seq    int64
}

// arrivalHeap is the seed's priority queue over scheduled arrivals. The
// production core replaced it with a FIFO ring (push order is already
// (cycle, seq) order under the constant flit delay); the reference keeps
// the heap to stay a verbatim copy.
type arrivalHeap []refArrival

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) Less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}
func (h arrivalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x any)   { *h = append(*h, x.(refArrival)) }
func (h *arrivalHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// referenceSim preserves the original dense per-cycle replay loop — every
// cycle scans all routers × ports², and routing decisions walk the
// destination mask with ForEach — exactly as shipped in the seed. It is
// the executable specification the event-driven Simulator.Run must match
// bit for bit (statistics, delivery trace and its order, cycle counts).
type referenceSim struct {
	cfg  Config
	topo topology

	buf      [][][]*refFlight
	reserved [][]int
	rr       [][]int
	linkFree [][]int64

	pending   []Packet
	arrivals  arrivalHeap
	nextID    int64
	nextSeq   int64
	result    Result
	endpointR []int
	routerE   []int

	routeTable [][]uint8
	buffered   []int
}

func newReferenceSim(cfg Config) (*referenceSim, error) {
	cfg.applyDefaults()
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
	s := &referenceSim{cfg: cfg, topo: topo}
	nr, np := topo.Routers(), topo.Ports()
	s.buf = make([][][]*refFlight, nr)
	s.reserved = make([][]int, nr)
	s.rr = make([][]int, nr)
	s.linkFree = make([][]int64, nr)
	for r := 0; r < nr; r++ {
		s.buf[r] = make([][]*refFlight, np)
		s.reserved[r] = make([]int, np)
		s.rr[r] = make([]int, np)
		s.linkFree[r] = make([]int64, np)
	}
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
	for r := 0; r < nr; r++ {
		s.routeTable[r] = make([]uint8, cfg.Endpoints)
		for d := 0; d < cfg.Endpoints; d++ {
			s.routeTable[r][d] = uint8(topo.Route(r, d))
		}
	}
	s.buffered = make([]int, nr)
	return s, nil
}

func (s *referenceSim) route(r, dst int) int { return int(s.routeTable[r][dst]) }

func (s *referenceSim) inject(p Packet) { s.pending = append(s.pending, p) }

// run is the seed Simulator.Run, verbatim up to receiver and type renaming.
func (s *referenceSim) run() (*Result, error) {
	queue := make([]*refFlight, 0, len(s.pending))
	for _, p := range s.pending {
		cc := p.CreatedMs * s.cfg.CyclesPerMs
		if s.cfg.Multicast {
			queue = append(queue, &refFlight{
				id: s.nextID, srcNeuron: p.SrcNeuron, src: p.Src,
				dst: p.Dst.Clone(), createdMs: p.CreatedMs, createdCycle: cc,
			})
			s.nextID++
		} else {
			p.Dst.ForEach(func(d int) {
				m := NewMask(s.cfg.Endpoints)
				m.Set(d)
				queue = append(queue, &refFlight{
					id: s.nextID, srcNeuron: p.SrcNeuron, src: p.Src,
					dst: m, createdMs: p.CreatedMs, createdCycle: cc,
				})
				s.nextID++
			})
		}
	}
	sort.SliceStable(queue, func(i, j int) bool {
		if queue[i].createdCycle != queue[j].createdCycle {
			return queue[i].createdCycle < queue[j].createdCycle
		}
		return queue[i].id < queue[j].id
	})
	ni := make([][]*refFlight, s.cfg.Endpoints)
	for _, f := range queue {
		ni[f.src] = append(ni[f.src], f)
	}
	niHead := make([]int, s.cfg.Endpoints)
	remaining := int64(len(queue))
	inFlight := int64(0)

	s.result.Stats.Injected = int64(len(queue))

	var now int64
	var lastEvent int64
	var totalLatency int64
	flits := int64(s.cfg.PacketFlits)

	nextInjection := func() int64 {
		next := int64(-1)
		for ep := 0; ep < s.cfg.Endpoints; ep++ {
			if niHead[ep] < len(ni[ep]) {
				c := ni[ep][niHead[ep]].createdCycle
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

	for remaining > 0 || inFlight > 0 || len(s.arrivals) > 0 {
		progressed := false

		for len(s.arrivals) > 0 && s.arrivals[0].cycle <= now {
			a := heap.Pop(&s.arrivals).(refArrival)
			s.buf[a.router][a.port] = append(s.buf[a.router][a.port], a.f)
			s.reserved[a.router][a.port]--
			s.buffered[a.router]++
			progressed = true
		}

		for ep := 0; ep < s.cfg.Endpoints; ep++ {
			h := niHead[ep]
			if h >= len(ni[ep]) || ni[ep][h].createdCycle > now {
				continue
			}
			r := s.endpointR[ep]
			if len(s.buf[r][localPort])+s.reserved[r][localPort] >= s.cfg.BufferDepth {
				continue
			}
			s.buf[r][localPort] = append(s.buf[r][localPort], ni[ep][h])
			s.buffered[r]++
			niHead[ep]++
			remaining--
			inFlight++
			progressed = true
		}

		for r := 0; r < s.topo.Routers(); r++ {
			if s.buffered[r] == 0 {
				continue
			}
			for p := 0; p < s.topo.Ports(); p++ {
				if s.linkFree[r][p] > now {
					continue
				}
				nin := s.topo.Ports()
				granted := -1
				for k := 0; k < nin; k++ {
					in := (s.rr[r][p] + k) % nin
					q := s.buf[r][in]
					if len(q) == 0 {
						continue
					}
					f := q[0]
					wants, all := s.portsFor(r, f, p)
					if !wants {
						continue
					}
					if p == localPort {
						ep := s.routerE[r]
						s.deliver(f, ep, now)
						totalLatency += now - f.createdCycle
						f.dst.Clear(ep)
						s.result.Stats.EnergyPJ += float64(flits) * s.cfg.RouterEnergyPJ
						if f.dst.Empty() {
							s.buf[r][in] = q[1:]
							s.buffered[r]--
							inFlight--
						}
						granted = in
						break
					}
					nr, np := s.topo.Neighbor(r, p)
					if nr < 0 {
						continue
					}
					if len(s.buf[nr][np])+s.reserved[nr][np] >= s.cfg.BufferDepth {
						continue
					}
					var sub *refFlight
					if all {
						sub = f
						s.buf[r][in] = q[1:]
						s.buffered[r]--
						inFlight--
					} else {
						sub = s.splitForPort(r, f, p)
						if f.dst.Empty() {
							s.buf[r][in] = q[1:]
							s.buffered[r]--
							inFlight--
						}
					}
					s.reserved[nr][np]++
					inFlight++
					s.nextSeq++
					heap.Push(&s.arrivals, refArrival{
						cycle: now + int64(s.cfg.PacketFlits), router: nr, port: np,
						f: sub, seq: s.nextSeq,
					})
					s.linkFree[r][p] = now + int64(s.cfg.PacketFlits)
					s.result.Stats.PacketHops++
					s.result.Stats.EnergyPJ += float64(flits) * (s.cfg.HopEnergyPJ + s.cfg.RouterEnergyPJ)
					granted = in
					break
				}
				if granted >= 0 {
					s.rr[r][p] = (granted + 1) % nin
					progressed = true
				}
			}
		}

		if progressed {
			lastEvent = now
			s.result.Stats.Cycles = now
		} else if now-lastEvent > s.cfg.StallLimit {
			return nil, fmt.Errorf("noc: no progress for %d cycles with %d packets outstanding (deadlock?)", s.cfg.StallLimit, remaining+inFlight)
		}

		now++
		if inFlight == 0 && len(s.arrivals) == 0 {
			if remaining == 0 {
				break
			}
			if n := nextInjection(); n > now {
				now = n
			}
		}
	}

	st := &s.result.Stats
	if st.Delivered > 0 {
		st.AvgLatency = float64(totalLatency) / float64(st.Delivered)
	}
	if st.Cycles > 0 && s.cfg.CyclesPerMs > 0 {
		st.ThroughputPerMs = float64(st.Delivered) * float64(s.cfg.CyclesPerMs) / float64(st.Cycles)
	}
	res := s.result
	return &res, nil
}

// portsFor is the seed's per-destination ForEach routing query.
func (s *referenceSim) portsFor(r int, f *refFlight, p int) (wants, all bool) {
	all = true
	f.dst.ForEach(func(d int) {
		if s.route(r, d) == p {
			wants = true
		} else {
			all = false
		}
	})
	return wants, wants && all
}

// splitForPort is the seed's allocating multicast fork.
func (s *referenceSim) splitForPort(r int, f *refFlight, p int) *refFlight {
	m := NewMask(s.cfg.Endpoints)
	f.dst.ForEach(func(d int) {
		if s.route(r, d) == p {
			m.Set(d)
		}
	})
	f.dst.AndNot(m)
	s.nextID++
	return &refFlight{
		id: s.nextID, srcNeuron: f.srcNeuron, src: f.src,
		dst: m, createdMs: f.createdMs, createdCycle: f.createdCycle,
	}
}

func (s *referenceSim) deliver(f *refFlight, ep int, now int64) {
	s.result.Deliveries = append(s.result.Deliveries, Delivery{
		SrcNeuron:    f.srcNeuron,
		Src:          f.src,
		Dst:          ep,
		CreatedMs:    f.createdMs,
		CreatedCycle: f.createdCycle,
		ArriveCycle:  now,
	})
	s.result.Stats.Delivered++
	if lat := now - f.createdCycle; lat > s.result.Stats.MaxLatency {
		s.result.Stats.MaxLatency = lat
	}
}

// referenceRun replays packets through the preserved seed loop.
func referenceRun(t *testing.T, cfg Config, packets []Packet) *Result {
	t.Helper()
	ref, err := newReferenceSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets {
		ref.inject(p)
	}
	res, err := ref.run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// aerTrace builds a packet trace shaped like one of the three AER
// packetization modes of internal/hardware: "multicast" (one wide-mask
// packet per spike), "percrossbar" (one singleton packet per destination),
// "persynapse" (singleton packets repeated per synapse multiplicity).
func aerTrace(endpoints int, mode string, seed int64) []Packet {
	rng := rand.New(rand.NewSource(seed))
	var pkts []Packet
	neuron := int32(0)
	for spike := 0; spike < 90; spike++ {
		src := rng.Intn(endpoints)
		ms := int64(rng.Intn(12))
		dsts := make([]int, 0, 4)
		for d := 0; d < endpoints; d++ {
			if d != src && rng.Intn(endpoints/3+1) == 0 {
				dsts = append(dsts, d)
			}
		}
		if len(dsts) == 0 {
			dsts = append(dsts, (src+1)%endpoints)
		}
		neuron++
		switch mode {
		case "multicast":
			m := NewMask(endpoints)
			for _, d := range dsts {
				m.Set(d)
			}
			pkts = append(pkts, Packet{SrcNeuron: neuron, Src: src, Dst: m, CreatedMs: ms})
		case "percrossbar":
			for _, d := range dsts {
				m := NewMask(endpoints)
				m.Set(d)
				pkts = append(pkts, Packet{SrcNeuron: neuron, Src: src, Dst: m, CreatedMs: ms})
			}
		case "persynapse":
			for _, d := range dsts {
				m := NewMask(endpoints)
				m.Set(d)
				for rep := 0; rep <= rng.Intn(3); rep++ {
					pkts = append(pkts, Packet{SrcNeuron: neuron, Src: src, Dst: m, CreatedMs: ms})
				}
			}
		default:
			panic("unknown AER trace mode " + mode)
		}
	}
	return pkts
}

// TestReplayMatchesReference pins the event-driven core to the preserved
// seed loop: for every topology, multicast setting, back-pressure regime,
// packet size and AER packetization shape, the full Result — aggregate
// statistics, delivery trace and its exact order — must be bit-identical.
func TestReplayMatchesReference(t *testing.T) {
	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	for _, kind := range []Kind{Mesh, Tree} {
		for _, endpoints := range []int{9, 70} {
			for _, multicast := range []bool{true, false} {
				for _, depth := range []int{1, 4} {
					cfg := DefaultConfig(kind, endpoints)
					cfg.Multicast = multicast
					cfg.BufferDepth = depth
					variants = append(variants, variant{
						fmt.Sprintf("%v/e%d/mc=%v/depth=%d", kind, endpoints, multicast, depth), cfg,
					})
				}
			}
		}
	}
	// Multi-flit packets and a non-binary tree exercise link occupancy
	// and fan-out paths the defaults miss.
	flitCfg := DefaultConfig(Mesh, 12)
	flitCfg.PacketFlits = 3
	variants = append(variants, variant{"mesh/e12/flits=3", flitCfg})
	arityCfg := DefaultConfig(Tree, 27)
	arityCfg.TreeArity = 3
	arityCfg.BufferDepth = 1
	variants = append(variants, variant{"tree/e27/arity=3/depth=1", arityCfg})
	// A star-like tree (arity = endpoint count, as the registered "star"
	// architecture wires it) has 72 ports per router — beyond the 64-bit
	// want-mask memo, exercising the wide-router arbitration fallback.
	starCfg := DefaultConfig(Tree, 70)
	starCfg.TreeArity = 70
	variants = append(variants, variant{"tree/e70/arity=70(star)", starCfg})

	for _, v := range variants {
		for _, mode := range []string{"multicast", "percrossbar", "persynapse"} {
			t.Run(v.name+"/"+mode, func(t *testing.T) {
				pkts := aerTrace(v.cfg.Endpoints, mode, 1234)
				want := referenceRun(t, v.cfg, pkts)

				sim, err := NewSimulator(v.cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pkts {
					if err := sim.Inject(p); err != nil {
						t.Fatal(err)
					}
				}
				got, err := sim.Run()
				if err != nil {
					t.Fatal(err)
				}
				if want.Stats.Delivered == 0 {
					t.Fatal("degenerate workload: nothing delivered")
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Fatalf("stats diverge from reference:\n got %+v\nwant %+v", got.Stats, want.Stats)
				}
				if !reflect.DeepEqual(got.Deliveries, want.Deliveries) {
					for i := range want.Deliveries {
						if i < len(got.Deliveries) && got.Deliveries[i] != want.Deliveries[i] {
							t.Fatalf("delivery %d diverges:\n got %+v\nwant %+v", i, got.Deliveries[i], want.Deliveries[i])
						}
					}
					t.Fatalf("delivery count diverges: got %d, want %d", len(got.Deliveries), len(want.Deliveries))
				}

				// A Reset replay of the same trace must stay identical
				// (the free-list and reused scratch must not leak state).
				sim.Reset()
				for _, p := range pkts {
					if err := sim.Inject(p); err != nil {
						t.Fatal(err)
					}
				}
				again, err := sim.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, got) {
					t.Fatal("Reset replay diverges from first run")
				}
			})
		}
	}
}

// TestReplayMatchesReferenceDense cross-checks the two cores on heavier
// random traffic (the reset_test workload) at a saturating injection rate.
func TestReplayMatchesReferenceDense(t *testing.T) {
	for _, kind := range []Kind{Mesh, Tree} {
		for _, seed := range []int64{3, 11} {
			const endpoints = 16
			cfg := DefaultConfig(kind, endpoints)
			cfg.BufferDepth = 2

			ref, err := newReferenceSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				src := rng.Intn(endpoints)
				m := NewMask(endpoints)
				for d := 0; d < endpoints; d++ {
					if d != src && rng.Intn(3) == 0 {
						m.Set(d)
					}
				}
				if m.Empty() {
					m.Set((src + 1) % endpoints)
				}
				p := Packet{SrcNeuron: int32(i), Src: src, Dst: m, CreatedMs: int64(rng.Intn(4))}
				ref.inject(p)
				if err := sim.Inject(p); err != nil {
					t.Fatal(err)
				}
			}
			want, err := ref.run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v seed %d: dense traffic diverges from reference", kind, seed)
			}
		}
	}
}

// TestReplayMatchesReferenceEmpty pins the degenerate case: a run with no
// injected traffic must match the reference exactly, including the nil
// (not empty non-nil) delivery trace.
func TestReplayMatchesReferenceEmpty(t *testing.T) {
	cfg := DefaultConfig(Mesh, 9)
	want := referenceRun(t, cfg, nil)
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("empty run diverges from reference:\n got %+v\nwant %+v", got, want)
	}
	if got.Deliveries != nil {
		t.Fatal("empty run must leave Deliveries nil, as the seed did")
	}
}
