package main

import (
	"math/rand"

	"paratreet/internal/particle"
	"paratreet/internal/vec"
)

// The generators below follow particle.NewClustered and
// particle.NewCosmological, with one difference: the cluster and halo
// centres come from a fixed source, and only the particles within them
// from the seed. Every seed then has the same large-scale structure and
// about the same work per step, so runs with different seeds can be
// compared; with seeded centres, step times moved by ~10% from seed to
// seed as clusters happened to overlap or not.

// structureSeed fixes the cluster and halo centres.
const structureSeed = 20220530

// clustered places n particles of total mass 1 in eight Plummer spheres
// of scale radius 1/64.
func clustered(n int, seed int64) []particle.Particle {
	const k = 8
	centres := rand.New(rand.NewSource(structureSeed))
	rng := rand.New(rand.NewSource(seed))
	ps := make([]particle.Particle, 0, n)
	for c := 0; c < k; c++ {
		centre := vec.V(centres.Float64(), centres.Float64(), centres.Float64())
		count := n / k
		if c == k-1 {
			count = n - len(ps)
		}
		ps = append(ps, particle.NewPlummer(count, rng.Int63(), centre, 1.0/64)...)
	}
	for i := range ps {
		ps[i].ID = int64(i)
		ps[i].Mass = 1 / float64(n)
	}
	return ps
}

// cosmological places half of n particles uniformly in the unit box and
// the rest in 32 Gaussian halos of width 1/40, clamped into the box.
func cosmological(n int, seed int64) []particle.Particle {
	const halos = 32
	centres := rand.New(rand.NewSource(structureSeed))
	rng := rand.New(rand.NewSource(seed))
	ps := particle.NewUniform(n/2, rng.Int63(), vec.UnitBox())
	per := (n - len(ps)) / halos
	for h := 0; h < halos; h++ {
		centre := vec.V(centres.Float64(), centres.Float64(), centres.Float64())
		count := per
		if h == halos-1 {
			count = n - len(ps)
		}
		for i := 0; i < count; i++ {
			p := vec.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(1.0 / 40).Add(centre)
			ps = append(ps, particle.Particle{Pos: p.Max(vec.V(0, 0, 0)).Min(vec.V(1, 1, 1))})
		}
	}
	for i := range ps {
		ps[i].ID = int64(i)
		ps[i].Mass = 1 / float64(n)
	}
	return ps
}
