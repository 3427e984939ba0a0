package partition

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// PSOConfig parameterizes the binary particle swarm optimizer of paper
// §III. The search space has D = N·C dimensions x_{i,k} ∈ {0,1} indicating
// that neuron i is allocated to crossbar k; velocities are real-valued and
// binarized through a sigmoid (Eq. 2–3); position/velocity updates follow
// Eq. 1; constraints Eq. 4–5 are enforced by a capacity-aware sampling
// repair.
type PSOConfig struct {
	// SwarmSize is np, the number of particles. The paper settles on 1000
	// (Fig. 7); the default here is 100, which reaches the same optima on
	// the evaluated applications at a fraction of the wall clock.
	SwarmSize int
	// Iterations is the number of synchronous swarm updates (paper: 100).
	Iterations int
	// Phi1 weighs the particle's own experience Pbest (Eq. 1).
	Phi1 float64
	// Phi2 weighs the neighborhood experience Gbest (Eq. 1).
	Phi2 float64
	// Inertia scales the previous velocity. The paper's Eq. 1 uses 1.0;
	// values slightly below 1 damp oscillation.
	Inertia float64
	// VMax clamps velocity components to [-VMax, VMax], keeping the
	// sigmoid responsive (standard binary-PSO practice).
	VMax float64
	// Seed makes the optimization reproducible.
	Seed int64
	// Workers bounds the parallelism of fitness evaluation; 0 selects
	// GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives the best fitness after every
	// iteration (used by the swarm-size exploration of Fig. 7).
	Progress func(iteration int, best int64)
	// DisableSeeding turns off heuristic swarm seeding. By default three
	// particles start from the PACMAN, Greedy and NEUTRAMS solutions, so
	// the swarm never returns anything worse than the strongest known
	// heuristic; the remaining particles start at random feasible
	// positions.
	DisableSeeding bool
	// NeighborhoodK switches from global-best to ring-neighborhood
	// (lbest) PSO: each particle follows the best position among the K
	// particles on either side of it in a ring, matching the paper's
	// description of Gbest as "the experience of its neighbors". 0 keeps
	// the fully informed gbest swarm.
	NeighborhoodK int
}

// DefaultPSOConfig returns the reference configuration used throughout the
// experiments.
func DefaultPSOConfig() PSOConfig {
	return PSOConfig{
		SwarmSize:  100,
		Iterations: 100,
		Phi1:       2.0,
		Phi2:       2.0,
		Inertia:    0.9,
		VMax:       4.0,
		Seed:       1,
	}
}

// PSO is the paper's PSO-based partitioner.
type PSO struct {
	Cfg PSOConfig
}

// NewPSO returns a PSO partitioner with the given configuration, filling
// zero fields with defaults.
func NewPSO(cfg PSOConfig) *PSO {
	def := DefaultPSOConfig()
	if cfg.SwarmSize == 0 {
		cfg.SwarmSize = def.SwarmSize
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = def.Iterations
	}
	if cfg.Phi1 == 0 {
		cfg.Phi1 = def.Phi1
	}
	if cfg.Phi2 == 0 {
		cfg.Phi2 = def.Phi2
	}
	if cfg.Inertia == 0 {
		cfg.Inertia = def.Inertia
	}
	if cfg.VMax == 0 {
		cfg.VMax = def.VMax
	}
	return &PSO{Cfg: cfg}
}

// Name implements Partitioner.
func (*PSO) Name() string { return "PSO" }

// Reseed implements Seeded: it returns a PSO with the same configuration
// but a different seed.
func (o *PSO) Reseed(seed int64) Partitioner {
	cfg := o.Cfg
	cfg.Seed = seed
	return NewPSO(cfg)
}

// particle is one swarm member: a velocity matrix over (neuron, crossbar)
// dimensions, the current binarized position, and the particle's best.
type particle struct {
	vel      []float32 // N*C, row-major by neuron
	pos      Assignment
	cost     int64
	best     Assignment
	bestCost int64
	// guide is the position the particle follows this iteration: the
	// swarm's gbest, or under lbest its own buffer holding a snapshot of
	// the neighbourhood best (neighbours' bests move while it steps).
	guide Assignment
	rng   *rand.Rand
	loads []int
	probs []float64
	work  psoWork
}

// psoWork counts the work a PSO run computed. It depends only on the
// problem and the configuration, so tests pin it where wall clocks drift.
type psoWork struct {
	fitness   int64 // Problem.Cost evaluations
	sigmoids  int64 // sigmoid exponentials computed in repair
	clampHits int64 // sigmoids of a velocity on the ±VMax clamp, precomputed
}

func (w *psoWork) add(o psoWork) {
	w.fitness += o.fitness
	w.sigmoids += o.sigmoids
	w.clampHits += o.clampHits
}

// swarmRun is the state every particle of one Partition call shares.
type swarmRun struct {
	p            *Problem
	cfg          PSOConfig
	vmax         float32
	sigHi, sigLo float64 // sigmoid(±vmax)
}

// Partition implements Partitioner.
func (o *PSO) Partition(p *Problem) (Assignment, error) {
	a, _, err := o.solve(p)
	return a, err
}

// solve is Partition that also reports the work it computed.
func (o *PSO) solve(p *Problem) (Assignment, psoWork, error) {
	var work psoWork
	cfg := o.Cfg
	if cfg.SwarmSize < 1 {
		return nil, work, errors.New("partition: PSO swarm size < 1")
	}
	if cfg.Iterations < 1 {
		return nil, work, errors.New("partition: PSO iterations < 1")
	}
	n, c := p.Graph.Neurons, p.Crossbars
	if n == 0 {
		return Assignment{}, work, nil
	}
	if c == 1 {
		return make(Assignment, n), work, nil
	}

	vmax := float32(cfg.VMax)
	run := &swarmRun{p: p, cfg: cfg, vmax: vmax,
		sigHi: sigmoid(float64(vmax)), sigLo: sigmoid(-float64(vmax))}
	master := rand.New(rand.NewSource(cfg.Seed))
	var seeds []Assignment
	if !cfg.DisableSeeding {
		for _, h := range []Partitioner{Pacman{}, Greedy{}, Neutrams{}} {
			if a, err := h.Partition(p); err == nil && p.Validate(a) == nil {
				seeds = append(seeds, a)
			}
		}
	}
	swarm := make([]*particle, cfg.SwarmSize)
	for s := range swarm {
		pt := &particle{
			vel:   make([]float32, n*c),
			pos:   make(Assignment, n),
			rng:   rand.New(rand.NewSource(master.Int63())),
			loads: make([]int, c),
			probs: make([]float64, c),
		}
		if s < len(seeds) {
			// Heuristic seed: adopt the baseline position exactly and
			// bias velocities toward it so the first repair keeps it
			// with high probability.
			copy(pt.pos, seeds[s])
			for i := 0; i < n; i++ {
				for k := 0; k < c; k++ {
					v := -cfg.VMax
					if seeds[s][i] == k {
						v = cfg.VMax
					}
					pt.vel[i*c+k] = float32(v)
				}
			}
		} else {
			for d := range pt.vel {
				pt.vel[d] = float32((pt.rng.Float64()*2 - 1) * cfg.VMax)
			}
			run.repair(pt)
		}
		pt.cost = p.Cost(pt.pos)
		pt.work.fitness++
		pt.best = pt.pos.Clone()
		pt.bestCost = pt.cost
		swarm[s] = pt
	}

	gbest := swarm[0].best.Clone()
	gbestCost := swarm[0].bestCost
	for _, pt := range swarm[1:] {
		if pt.bestCost < gbestCost {
			gbestCost = pt.bestCost
			copy(gbest, pt.best)
		}
	}
	for _, pt := range swarm {
		if cfg.NeighborhoodK > 0 {
			pt.guide = make(Assignment, n)
		} else {
			pt.guide = gbest
		}
	}

	stepAll := func() {
		for _, pt := range swarm {
			run.step(pt)
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, len(swarm)); workers > 1 {
		// One pool serves every iteration; particles are independent
		// within an iteration, so the result is the same at any count.
		var wg sync.WaitGroup
		jobs := make(chan *particle)
		defer close(jobs)
		for w := 0; w < workers; w++ {
			go func() {
				for pt := range jobs {
					run.step(pt)
					wg.Done()
				}
			}()
		}
		stepAll = func() {
			wg.Add(len(swarm))
			for _, pt := range swarm {
				jobs <- pt
			}
			wg.Wait()
		}
	}
	for iter := 0; iter < cfg.Iterations; iter++ {
		if cfg.NeighborhoodK > 0 {
			// lbest: each particle follows the best particle within the
			// ring neighbourhood of radius K.
			np := len(swarm)
			for s, pt := range swarm {
				best := swarm[s]
				for d := 1; d <= cfg.NeighborhoodK; d++ {
					if q := swarm[(s+d)%np]; q.bestCost < best.bestCost {
						best = q
					}
					if q := swarm[(s-d+np)%np]; q.bestCost < best.bestCost {
						best = q
					}
				}
				copy(pt.guide, best.best)
			}
		}
		stepAll()

		// Synchronous gbest update after the full swarm moved.
		for _, pt := range swarm {
			if pt.bestCost < gbestCost {
				gbestCost = pt.bestCost
				copy(gbest, pt.best)
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(iter, gbestCost)
		}
	}

	for _, pt := range swarm {
		work.add(pt.work)
	}
	if err := p.Validate(gbest); err != nil {
		return nil, work, fmt.Errorf("partition: PSO internal error: %w", err)
	}
	return gbest, work, nil
}

// step performs one velocity update (Eq. 1), binarization (Eq. 2–3), and
// constraint repair (Eq. 4–5) for one particle, then re-evaluates fitness.
//
// In a neuron's row, (pbx − x) and (gbx − x) of Eq. 1 are zero at every
// crossbar but the particle's own (xi), its best's (pb) and its guide's
// (gb), so there the update is the inertia term alone; those three are
// then redone from their saved old velocities with the full formula. For
// finite Phi1 and Phi2 the rows equal a full per-crossbar evaluation up to
// the sign of a zero velocity, which no clamp, product or sigmoid sees.
func (r *swarmRun) step(pt *particle) {
	c := r.p.Crossbars
	inertia, phi1, phi2 := r.cfg.Inertia, r.cfg.Phi1, r.cfg.Phi2
	vmax := float64(r.vmax)
	for i, xi := range pt.pos {
		row := pt.vel[i*c : (i+1)*c : (i+1)*c]
		pb, gb := pt.best[i], pt.guide[i]
		a1 := phi1 * pt.rng.Float64()
		a2 := phi2 * pt.rng.Float64()
		vx, vpb, vgb := row[xi], row[pb], row[gb]
		for k, v := range row {
			u := inertia * float64(v)
			if u > vmax {
				u = vmax
			} else if u < -vmax {
				u = -vmax
			}
			row[k] = float32(u)
		}
		row[xi] = velocity(vx, inertia, a1, a2, 1, bit(pb == xi), bit(gb == xi), vmax)
		if pb != xi {
			row[pb] = velocity(vpb, inertia, a1, a2, 0, 1, bit(gb == pb), vmax)
		}
		if gb != xi && gb != pb {
			row[gb] = velocity(vgb, inertia, a1, a2, 0, 0, 1, vmax)
		}
	}
	r.repair(pt)
	pt.cost = r.p.Cost(pt.pos)
	pt.work.fitness++
	if pt.cost < pt.bestCost {
		pt.bestCost = pt.cost
		copy(pt.best, pt.pos)
	}
}

// velocity is Eq. 1 at one crossbar, clamped to ±vmax: v is the old
// velocity, a1 and a2 are Phi1·r1 and Phi2·r2, and x, pbx and gbx are the
// crossbar's bits in the position, the particle's best and its guide.
func velocity(v float32, inertia, a1, a2, x, pbx, gbx, vmax float64) float32 {
	u := inertia*float64(v) + a1*(pbx-x) + a2*(gbx-x)
	if u > vmax {
		u = vmax
	} else if u < -vmax {
		u = -vmax
	}
	return float32(u)
}

func bit(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// repair binarizes the velocity matrix into a feasible assignment: each
// neuron samples a crossbar with probability proportional to
// sigmoid(v_{i,k}) (Eq. 2–3) restricted to crossbars with remaining
// capacity, guaranteeing Eq. 4 (one crossbar per neuron) and Eq. 5
// (≤ Nc neurons per crossbar).
func (r *swarmRun) repair(pt *particle) {
	c, size := r.p.Crossbars, r.p.CrossbarSize
	vmax := r.vmax
	loads, probs := pt.loads[:c], pt.probs[:c]
	clear(loads)
	var sigmoids, clampHits int64
	for i := range pt.pos {
		row := pt.vel[i*c : (i+1)*c : (i+1)*c]
		var sum float64
		for k, v := range row {
			if loads[k] >= size {
				probs[k] = 0
				continue
			}
			var pr float64
			switch v {
			case vmax:
				pr = r.sigHi
				clampHits++
			case -vmax:
				pr = r.sigLo
				clampHits++
			default:
				pr = sigmoid(float64(v))
				sigmoids++
			}
			probs[k] = pr
			sum += pr
		}
		var chosen int
		if sum <= 0 {
			// All open crossbars have vanishing probability; fall back
			// to the least loaded open crossbar.
			chosen = -1
			for k := 0; k < c; k++ {
				if loads[k] >= size {
					continue
				}
				if chosen < 0 || loads[k] < loads[chosen] {
					chosen = k
				}
			}
		} else {
			u := pt.rng.Float64() * sum
			chosen = -1
			for k, pr := range probs {
				if pr <= 0 {
					continue
				}
				u -= pr
				chosen = k
				if u <= 0 {
					break
				}
			}
		}
		pt.pos[i] = chosen
		loads[chosen]++
	}
	pt.work.sigmoids += sigmoids
	pt.work.clampHits += clampHits
}

func sigmoid(v float64) float64 {
	return 1.0 / (1.0 + math.Exp(-v))
}
