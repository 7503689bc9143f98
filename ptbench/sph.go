package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"paratreet"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
	"paratreet/internal/sph"
)

// The sph workload: repeated SPH density passes — up-and-down k-nearest
// neighbour search, then density and pressure — over a cosmological
// volume whose particles are held still, with scratch builds.
const sphK = 32

// sphSample is one checked particle's tree output.
type sphSample struct {
	p      particle.Particle
	distSq []float64
}

type knnCounted = countingVisitor[knn.Data, knn.Visitor]

func runSPH(cfg config) (*report, error) {
	n := cfg.size.sphN
	par := sph.Params{K: sphK, Gamma: 5.0 / 3.0, U: 1}
	// want holds the IDs the check samples; PostTraversal of the check
	// step copies their neighbour lists into got.
	var want map[int64]bool
	var got []sphSample
	var all []particle.Particle
	return runSim(cfg, simWorkload[knn.Data]{
		newSim: func(reg *paratreet.MetricsRegistry) (*paratreet.Simulation[knn.Data], error) {
			ps := cosmological(n, cfg.seed)
			all = particle.Clone(ps)
			c := machineConfig(reg)
			c.Latency, c.PerByte = 20*time.Microsecond, 2*time.Nanosecond
			return paratreet.NewSimulation[knn.Data](c, knn.Accumulator{}, knn.Codec{}, ps)
		},
		driver: func(kc *kernelCounts) paratreet.Driver[knn.Data] {
			return paratreet.DriverFuncs[knn.Data]{
				TraversalFn: func(s *paratreet.Simulation[knn.Data], _ int) {
					for _, p := range s.Partitions() {
						knn.Attach(p.Buckets(), sphK)
					}
					v := knn.Visitor{K: sphK, ExcludeSelf: true}
					if kc == nil {
						paratreet.StartUpAndDown(s, func(*paratreet.Partition[knn.Data]) knn.Visitor { return v })
						return
					}
					paratreet.StartUpAndDown(s, func(p *paratreet.Partition[knn.Data]) knnCounted { return counting(kc, p, v) })
				},
				PostTraversalFn: func(s *paratreet.Simulation[knn.Data], _ int) {
					s.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
						st := b.State.(*knn.State)
						for i := range b.Particles {
							p := &b.Particles[i]
							sph.DensityFromNeighbors(p, st.Neighbors(i))
							sph.Pressure(p, par)
							if want != nil && want[p.ID] {
								got = append(got, sphSample{p: *p, distSq: neighborDistSq(st.Neighbors(i))})
							}
						}
					})
				},
			}
		},
		warmup: 1,
		check: func(sim *paratreet.Simulation[knn.Data], d paratreet.Driver[knn.Data], rep *report) error {
			rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
			want = map[int64]bool{}
			for len(want) < cfg.size.checks && len(want) < n {
				want[all[rng.Intn(n)].ID] = true
			}
			if err := sim.Run(1, d); err != nil {
				return err
			}
			checkSPH(all, got, want, par, rep)
			return nil
		},
	})
}

func neighborDistSq(ns []knn.Neighbor) []float64 {
	out := make([]float64, len(ns))
	for i, nb := range ns {
		out[i] = nb.DistSq
	}
	sort.Float64s(out)
	return out
}

// checkSPH compares each sampled particle's neighbour distances with a
// brute-force k-nearest search over the (unmoving) particle set, and its
// density with the cubic-spline sum over the brute-force neighbours.
func checkSPH(all []particle.Particle, got []sphSample, want map[int64]bool, par sph.Params, rep *report) {
	if len(got) != len(want) {
		rep.fail("sph: %d sampled particles came out of the check step, want %d", len(got), len(want))
		return
	}
	var worst float64
	for _, g := range got {
		type nb struct{ d2, m float64 }
		nbs := make([]nb, 0, len(all))
		for j := range all {
			if all[j].ID != g.p.ID {
				nbs = append(nbs, nb{all[j].Pos.DistSq(g.p.Pos), all[j].Mass})
			}
		}
		sort.Slice(nbs, func(a, b int) bool { return nbs[a].d2 < nbs[b].d2 })
		ref := make([]float64, par.K)
		for i := range ref {
			ref[i] = nbs[i].d2
		}
		if len(g.distSq) != len(ref) {
			rep.fail("sph: particle %d has %d neighbours, want %d", g.p.ID, len(g.distSq), len(ref))
			return
		}
		for i := range ref {
			if g.distSq[i] != ref[i] {
				rep.fail("sph: particle %d neighbour %d at distance² %.17g, brute force %.17g", g.p.ID, i, g.distSq[i], ref[i])
				return
			}
		}
		h := math.Sqrt(ref[len(ref)-1]) / 2
		rho := g.p.Mass * cubicSpline(0, h)
		for i := range ref {
			rho += nbs[i].m * cubicSpline(math.Sqrt(ref[i]), h)
		}
		rel := math.Abs(g.p.Density-rho) / rho
		worst = math.Max(worst, rel)
		if !(rel <= 1e-9) {
			rep.fail("sph: particle %d density %.17g, brute force %.17g", g.p.ID, g.p.Density, rho)
			return
		}
	}
	rep.notef("sph check: %d sampled particles match brute-force %d-nearest distances exactly; worst density relative error %.2g", len(got), par.K, worst)
}

// cubicSpline is the 3-D cubic spline kernel W(r, h) with support 2h.
func cubicSpline(r, h float64) float64 {
	q := r / h
	sigma := 1 / (math.Pi * h * h * h)
	switch {
	case q < 1:
		return sigma * (1 - 1.5*q*q + 0.75*q*q*q)
	case q < 2:
		d := 2 - q
		return sigma * 0.25 * d * d * d
	}
	return 0
}
