package dht

import (
	"fmt"
	"slices"
	"testing"

	"rcm/overlay"
)

// The structural next-hop walks in Chord, Kademlia, HypercubeCAN and
// Plaxton rely on each table entry sitting in its window or prefix class.
// This file keeps the O(d) table scans they replaced as a reference and
// checks that Route and AppendCandidateHops agree with it exactly, on
// freshly built overlays and after random maintenance.

// refRoute is the reference greedy route: at every hop it scans all d
// neighbors (read through Neighbors, the API boundary) and keeps the alive
// one that makes the most progress under the protocol's metric.
func refRoute(p Protocol, src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	s := p.Space()
	cur := src
	for hops := 0; hops < hopCap(s); hops++ {
		if cur == dst {
			return hops, true
		}
		next, ok := refNextHop(p, cur, dst, alive)
		if !ok {
			return hops, false
		}
		cur = next
	}
	return hopCap(s), false
}

func refNextHop(p Protocol, cur, dst overlay.ID, alive *overlay.Bitset) (overlay.ID, bool) {
	s := p.Space()
	nbs := p.Neighbors(cur)
	switch p.(type) {
	case *Chord:
		remaining := s.RingDist(cur, dst)
		best, bestRemaining, found := cur, remaining, false
		for _, f := range nbs {
			if s.RingDist(cur, f) > remaining || !alive.Get(int(f)) {
				continue
			}
			if nr := s.RingDist(f, dst); nr < bestRemaining {
				best, bestRemaining, found = f, nr, true
			}
		}
		return best, found
	case *Kademlia:
		best, bestDist := cur, s.XORDist(cur, dst)
		for _, nb := range nbs {
			if !alive.Get(int(nb)) {
				continue
			}
			if nd := s.XORDist(nb, dst); nd < bestDist {
				best, bestDist = nb, nd
			}
		}
		return best, best != cur
	case *HypercubeCAN:
		for i := 1; i <= s.Bits(); i++ {
			if s.Bit(cur, i) == s.Bit(dst, i) {
				continue
			}
			if next := s.FlipBit(cur, i); alive.Get(int(next)) {
				return next, true
			}
		}
		return cur, false
	case *Plaxton:
		next := nbs[s.FirstDifferingBit(cur, dst)-1]
		return next, alive.Get(int(next))
	}
	panic(fmt.Sprintf("no reference for %T", p))
}

// refCandidates is the reference candidate list: every neighbor that makes
// strict progress, deduplicated, stably sorted by the resulting distance
// to dst.
func refCandidates(p Protocol, x, dst overlay.ID) []overlay.ID {
	s := p.Space()
	if x == dst {
		return nil
	}
	var dist func(overlay.ID) uint64
	var eligible func(overlay.ID) bool
	switch p.(type) {
	case *Chord:
		remaining := s.RingDist(x, dst)
		dist = func(f overlay.ID) uint64 { return s.RingDist(f, dst) }
		eligible = func(f overlay.ID) bool { return f != x && s.RingDist(x, f) <= remaining }
	case *Kademlia:
		dist = func(nb overlay.ID) uint64 { return s.XORDist(nb, dst) }
		eligible = func(nb overlay.ID) bool { return dist(nb) < s.XORDist(x, dst) }
	case *HypercubeCAN:
		var out []overlay.ID
		for i := 1; i <= s.Bits(); i++ {
			if s.Bit(x, i) != s.Bit(dst, i) {
				out = append(out, s.FlipBit(x, i))
			}
		}
		return out
	case *Plaxton:
		return []overlay.ID{p.Neighbors(x)[s.FirstDifferingBit(x, dst)-1]}
	default:
		panic(fmt.Sprintf("no reference for %T", p))
	}
	var out []overlay.ID
	for _, nb := range p.Neighbors(x) {
		if eligible(nb) && !slices.Contains(out, nb) {
			out = append(out, nb)
		}
	}
	slices.SortStableFunc(out, func(a, b overlay.ID) int {
		da, db := dist(a), dist(b)
		switch {
		case da < db:
			return -1
		case da > db:
			return 1
		}
		return 0
	})
	return out
}

// checkTableClasses asserts the invariant the structural walks rely on:
// Chord finger i lies at clockwise distance [2^{i−1}, 2^i); Kademlia and
// Plaxton entry i first differs from its owner at bit i.
func checkTableClasses(t *testing.T, p Protocol) {
	t.Helper()
	s := p.Space()
	for x := overlay.ID(0); uint64(x) < s.Size(); x++ {
		for i, nb := range p.Neighbors(x) {
			level := i + 1
			var ok bool
			switch p.(type) {
			case *Chord:
				dist := s.RingDist(x, nb)
				ok = dist >= 1<<uint(level-1) && dist < 1<<uint(level)
			case *Kademlia, *Plaxton:
				ok = s.FirstDifferingBit(x, nb) == level
			case *HypercubeCAN:
				ok = nb == s.FlipBit(x, level)
			}
			if !ok {
				t.Fatalf("%s d=%d: node %d entry %d = %d outside its class", p.Name(), s.Bits(), x, level, nb)
			}
		}
	}
}

// checkAgainstReference routes pairs random pairs at every q of the
// paper's grid and compares Route and AppendCandidateHops to the
// reference scans.
func checkAgainstReference(t *testing.T, p Protocol, pairs int, rng *overlay.RNG) {
	t.Helper()
	s := p.Space()
	fwd := p.(Forwarder)
	alive := overlay.NewBitset(int(s.Size()))
	for qi := 0; qi <= 18; qi++ {
		q := 0.05 * float64(qi)
		alive.FillRandomAlive(q, rng)
		for i := 0; i < pairs; i++ {
			src := overlay.ID(rng.Uint64n(s.Size()))
			dst := overlay.ID(rng.Uint64n(s.Size()))
			gotH, gotOK := p.Route(src, dst, alive)
			wantH, wantOK := refRoute(p, src, dst, alive)
			if gotH != wantH || gotOK != wantOK {
				t.Fatalf("%s d=%d q=%.2f: Route(%d, %d) = (%d, %v), reference (%d, %v)",
					p.Name(), s.Bits(), q, src, dst, gotH, gotOK, wantH, wantOK)
			}
			got := fwd.AppendCandidateHops(nil, src, dst)
			if want := refCandidates(p, src, dst); !slices.Equal(got, want) {
				t.Fatalf("%s d=%d: AppendCandidateHops(%d, %d) = %v, reference %v",
					p.Name(), s.Bits(), src, dst, got, want)
			}
		}
	}
}

func TestStructuralWalkMatchesReferenceScan(t *testing.T) {
	for _, name := range []string{"chord", "kademlia", "can", "plaxton"} {
		for _, bits := range []int{6, 10, 16} {
			t.Run(fmt.Sprintf("%s/d=%d", name, bits), func(t *testing.T) {
				p, err := New(name, Config{Bits: bits, Seed: uint64(bits)})
				if err != nil {
					t.Fatal(err)
				}
				rng := overlay.NewRNG(uint64(bits) * 7919)
				pairs := 300
				if testing.Short() {
					pairs = 50
				}
				checkTableClasses(t, p)
				checkAgainstReference(t, p, pairs, rng)

				// Maintenance rewrites entries; the walk must still match.
				m, ok := p.(interface {
					Maintainer
					Resampler
				})
				if !ok {
					return // the hypercube's neighbors are structural
				}
				alive := overlay.NewBitset(int(p.Space().Size()))
				for round := 0; round < 3; round++ {
					alive.FillRandomAlive(0.3, rng)
					for i := 0; i < 1<<uint(bits-2); i++ {
						x := overlay.ID(rng.Uint64n(p.Space().Size()))
						switch rng.Intn(3) {
						case 0:
							m.Join(x, alive, rng)
						case 1:
							m.Stabilize(x, alive, rng)
						default:
							m.ResampleNode(x, alive, rng)
						}
					}
					checkTableClasses(t, p)
					checkAgainstReference(t, p, pairs/3, rng)
				}
			})
		}
	}
}
