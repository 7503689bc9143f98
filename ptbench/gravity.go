package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"paratreet"
	"paratreet/internal/gravity"
	"paratreet/internal/particle"
)

// The gravity workload: Barnes-Hut kick-drift time-stepping of clustered
// particles with quadrupoles, octree + SFC decomposition and incremental
// builds enabled.
const (
	gravityDt    = 1e-4
	gravityTheta = 0.6
	gravitySoft  = 1e-4
	// gravityTol bounds the median relative acceleration error against
	// direct summation. At θ = 0.6 with quadrupoles it measures 2–3e-4
	// on this workload; 3e-3 leaves room for sampling while still
	// catching a broken opening criterion or multipole term.
	gravityTol = 3e-3
)

// machineConfig is the simulated machine every workload runs on: two
// procs of one worker each (no more workers than the host has cores),
// octree, SFC decomposition, bucket 16, wait-free cache.
func machineConfig(reg *paratreet.MetricsRegistry) paratreet.Config {
	return paratreet.Config{
		Procs: 2, WorkersPerProc: 1,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
		CachePolicy: paratreet.CacheWaitFree,
		Metrics:     reg,
	}
}

type gravityCounted = countingVisitor[gravity.CentroidData, gravity.Visitor[gravity.CentroidData]]

func runGravity(cfg config) (*report, error) {
	n := cfg.size.gravityN
	par := gravity.Params{G: 1, Theta: gravityTheta, Soft: gravitySoft, Quadrupole: true}
	// check, when set, makes PostTraversal copy the particles with their
	// fresh accelerations before kick-drift moves them.
	var check []particle.Particle
	var checking bool
	var mass0 float64
	return runSim(cfg, simWorkload[gravity.CentroidData]{
		newSim: func(reg *paratreet.MetricsRegistry) (*paratreet.Simulation[gravity.CentroidData], error) {
			ps := clustered(n, cfg.seed)
			mass0 = particle.TotalMass(ps)
			c := machineConfig(reg)
			c.Latency, c.PerByte = 20*time.Microsecond, 2*time.Nanosecond
			c.Incremental = true
			return paratreet.NewSimulation[gravity.CentroidData](c, gravity.Accumulator{}, gravity.Codec{}, ps)
		},
		driver: func(kc *kernelCounts) paratreet.Driver[gravity.CentroidData] {
			return paratreet.DriverFuncs[gravity.CentroidData]{
				TraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], _ int) {
					s.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], b *paratreet.Bucket) {
						particle.ResetAcc(b.Particles)
					})
					if kc == nil {
						paratreet.StartDown(s, func(*paratreet.Partition[gravity.CentroidData]) gravity.Visitor[gravity.CentroidData] {
							return gravity.New(par)
						})
						return
					}
					paratreet.StartDown(s, func(p *paratreet.Partition[gravity.CentroidData]) gravityCounted {
						return counting(kc, p, gravity.New(par))
					})
				},
				PostTraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], _ int) {
					s.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], b *paratreet.Bucket) {
						if checking {
							check = append(check, b.Particles...)
						}
						for i := range b.Particles {
							p := &b.Particles[i]
							p.Vel = p.Vel.Add(p.Acc.Scale(gravityDt))
							p.Pos = p.Pos.Add(p.Vel.Scale(gravityDt))
						}
					})
				},
			}
		},
		warmup: 1,
		check: func(sim *paratreet.Simulation[gravity.CentroidData], d paratreet.Driver[gravity.CentroidData], rep *report) error {
			checking = true
			if err := sim.Run(1, d); err != nil {
				return err
			}
			checkGravity(check, n, mass0, cfg.seed, cfg.size.checks, rep)
			return nil
		},
	})
}

// checkGravity compares the tree accelerations of a seeded sample of
// targets against direct summation over the same positions, and checks
// that particle count, identities and total mass are conserved.
func checkGravity(ps []particle.Particle, n int, mass0 float64, seed int64, samples int, rep *report) {
	if len(ps) != n {
		rep.fail("gravity: %d particles after the window, want %d", len(ps), n)
		return
	}
	seen := make([]bool, n)
	var mass float64
	for i := range ps {
		id := ps[i].ID
		if id < 0 || id >= int64(n) || seen[id] {
			rep.fail("gravity: particle id %d missing or duplicated", id)
			return
		}
		seen[id] = true
		mass += ps[i].Mass
	}
	if math.Abs(mass-mass0) > 1e-9*mass0 {
		rep.fail("gravity: total mass %.15g, want %.15g", mass, mass0)
		return
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].ID < ps[j].ID })
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	eps2 := gravitySoft * gravitySoft
	errs := make([]float64, samples)
	for k := range errs {
		t := &ps[rng.Intn(n)]
		var ax, ay, az float64
		for j := range ps {
			s := &ps[j]
			if s.ID == t.ID {
				continue
			}
			dx, dy, dz := s.Pos.X-t.Pos.X, s.Pos.Y-t.Pos.Y, s.Pos.Z-t.Pos.Z
			r2 := dx*dx + dy*dy + dz*dz + eps2
			f := s.Mass / (r2 * math.Sqrt(r2))
			ax, ay, az = ax+f*dx, ay+f*dy, az+f*dz
		}
		ex, ey, ez := t.Acc.X-ax, t.Acc.Y-ay, t.Acc.Z-az
		errs[k] = math.Sqrt(ex*ex+ey*ey+ez*ez) / math.Sqrt(ax*ax+ay*ay+az*az)
	}
	med := median(errs)
	rep.notef("gravity check: median relative acceleration error %.3g over %d direct-sum targets (tolerance %.0e)", med, samples, gravityTol)
	if !(med <= gravityTol) {
		rep.fail("gravity: median relative acceleration error %.3g exceeds %.0e", med, gravityTol)
	}
}
