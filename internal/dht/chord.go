package dht

import (
	"math/bits"

	"rcm/overlay"
)

// Chord is the ring routing geometry (§3.4), randomized-finger variant:
// finger i of node x points to a node at uniform clockwise distance in
// [2^{i−1}, 2^i). Finger 1 is therefore always the immediate successor.
// Routing is greedy clockwise without overshooting the target; progress
// made by suboptimal hops is preserved (the structural property that makes
// the paper's ring analysis a lower bound, §4.3.3).
type Chord struct {
	space overlay.Space
	// table[x*d + (i-1)] is node x's finger i, always at clockwise
	// distance [2^{i−1}, 2^i) from x.
	table []uint32
}

var (
	_ Protocol   = (*Chord)(nil)
	_ Forwarder  = (*Chord)(nil)
	_ Maintainer = (*Chord)(nil)
)

// NewChord builds the overlay with randomized fingers.
func NewChord(cfg Config) (*Chord, error) {
	s, err := space(cfg)
	if err != nil {
		return nil, err
	}
	d := s.Bits()
	n := s.Size()
	rng := overlay.NewRNG(cfg.Seed ^ 0x63686f7264) // "chord"
	table := make([]uint32, int(n)*d)
	for x := uint64(0); x < n; x++ {
		for i := 1; i <= d; i++ {
			lo := uint64(1) << uint(i-1)
			span := lo // window [2^{i-1}, 2^i) has width 2^{i-1}
			dist := lo + rng.Uint64n(span)
			table[int(x)*d+i-1] = uint32((x + dist) & (n - 1))
		}
	}
	return &Chord{space: s, table: table}, nil
}

// Name implements Protocol.
func (c *Chord) Name() string { return "chord" }

// GeometryName implements Protocol.
func (c *Chord) GeometryName() string { return "ring" }

// Space implements Protocol.
func (c *Chord) Space() overlay.Space { return c.space }

// Degree implements Protocol.
func (c *Chord) Degree() int { return c.space.Bits() }

// Route implements Protocol: take the alive finger that lands closest to
// dst without passing it; fail when no alive finger makes clockwise
// progress. The successor finger guarantees progress whenever it is alive.
//
// Finger i lies in [2^{i−1}, 2^i), so with 2^{L−1} ≤ remaining < 2^L the
// fingers above L overshoot, finger L may, and those below never do; the
// windows are disjoint, so walking down from L the first alive finger
// that does not overshoot is the greedy hop.
func (c *Chord) Route(src, dst overlay.ID, alive *overlay.Bitset) (int, bool) {
	d := c.space.Bits()
	cur := src
	hops := 0
	for maxHops := hopCap(c.space); hops < maxHops; hops++ {
		if cur == dst {
			return hops, true
		}
		remaining := c.space.RingDist(cur, dst)
		fingers := c.table[int(cur)*d : int(cur)*d+d]
		i := bits.Len64(remaining)
		for ; i > 0; i-- {
			f := overlay.ID(fingers[i-1])
			if c.space.RingDist(cur, f) <= remaining && alive.Get(int(f)) {
				cur = f
				break
			}
		}
		if i == 0 {
			return hops, false
		}
	}
	return hops, false
}

// AppendCandidateHops implements Forwarder: the non-overshooting fingers of
// x from the highest window down, which is ascending resulting clockwise
// distance to dst (see Route) — so the first alive candidate is exactly
// Route's greedy choice.
func (c *Chord) AppendCandidateHops(buf []overlay.ID, x, dst overlay.ID) []overlay.ID {
	d := c.space.Bits()
	remaining := c.space.RingDist(x, dst)
	fingers := c.table[int(x)*d : int(x)*d+d]
	for i := bits.Len64(remaining); i > 0; i-- {
		if f := overlay.ID(fingers[i-1]); c.space.RingDist(x, f) <= remaining {
			buf = append(buf, f)
		}
	}
	return buf
}

// refresh re-draws finger i of x within its window, preferring alive
// candidates, and returns the modeled message cost.
func (c *Chord) refresh(x overlay.ID, i int, alive *overlay.Bitset, rng *overlay.RNG) int {
	n := c.space.Size()
	lo := uint64(1) << uint(i-1)
	id, attempts := drawAliveCost(alive, func() overlay.ID {
		return overlay.ID((uint64(x) + lo + rng.Uint64n(lo)) & (n - 1))
	})
	c.table[int(x)*c.space.Bits()+i-1] = uint32(id)
	return probeCost(attempts)
}

// Join implements Maintainer: a (re)joining node rebuilds all d fingers
// toward alive nodes, returning the modeled message cost.
func (c *Chord) Join(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	cost := 0
	for i := 1; i <= c.space.Bits(); i++ {
		cost += c.refresh(x, i, alive, rng)
	}
	return cost
}

// Stabilize implements Maintainer: one periodic round refreshes a single
// uniformly-chosen finger (Chord's fix_fingers).
func (c *Chord) Stabilize(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) int {
	return c.refresh(x, 1+rng.Intn(c.space.Bits()), alive, rng)
}

// ResampleNode implements Resampler: re-draws every finger of x within its
// window, preferring alive candidates. Not safe concurrently with Route.
func (c *Chord) ResampleNode(x overlay.ID, alive *overlay.Bitset, rng *overlay.RNG) {
	c.Join(x, alive, rng)
}

// Neighbors implements Protocol.
func (c *Chord) Neighbors(x overlay.ID) []overlay.ID {
	return neighbors(c.table, x, c.space.Bits())
}
