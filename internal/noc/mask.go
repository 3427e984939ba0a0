// Package noc is the global-synapse interconnect simulator of this
// reproduction — the substitute for the paper's Noxim++ (extended Noxim,
// §IV). It simulates a time-multiplexed network-on-chip at cycle
// granularity with per-port FIFO buffers, round-robin arbitration,
// configurable topology (NoC-mesh as in TrueNorth/HiCANN, NoC-tree as in
// CxQuad), multicast spike delivery, and an energy model. Its delivery
// trace feeds the SNN-specific metrics (spike disorder, ISI distortion) of
// internal/metrics.
package noc

import "math/bits"

// Mask is a bitset over destination endpoints (crossbars), used to address
// multicast AER packets to a selected subset of crossbars — one of the
// paper's Noxim extensions.
type Mask []uint64

// NewMask returns a mask able to address n endpoints.
func NewMask(n int) Mask {
	return make(Mask, (n+63)/64)
}

// Set marks endpoint i.
func (m Mask) Set(i int) { m[i/64] |= 1 << (uint(i) % 64) }

// Clear unmarks endpoint i.
func (m Mask) Clear(i int) { m[i/64] &^= 1 << (uint(i) % 64) }

// Test reports whether endpoint i is marked.
func (m Mask) Test(i int) bool {
	w := i / 64
	if w >= len(m) {
		return false
	}
	return m[w]&(1<<(uint(i)%64)) != 0
}

// Count returns the number of marked endpoints.
func (m Mask) Count() int {
	total := 0
	for _, w := range m {
		total += bits.OnesCount64(w)
	}
	return total
}

// Empty reports whether no endpoint is marked.
func (m Mask) Empty() bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of the mask.
func (m Mask) Clone() Mask {
	out := make(Mask, len(m))
	copy(out, m)
	return out
}

// ForEach calls f for every marked endpoint in ascending order.
func (m Mask) ForEach(f func(i int)) {
	for wi, w := range m {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*64 + b)
			w &^= 1 << uint(b)
		}
	}
}

// First returns the lowest marked endpoint, or -1 if the mask is empty.
func (m Mask) First() int { return m.next(0) }

// next returns the lowest marked endpoint >= i, or -1 if there is none.
func (m Mask) next(i int) int {
	for wi := i / 64; wi < len(m); wi++ {
		w := m[wi]
		if wi == i/64 {
			w &= ^uint64(0) << (uint(i) % 64)
		}
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// AndNot removes all endpoints of other from m in place.
func (m Mask) AndNot(other Mask) {
	for i := range m {
		if i < len(other) {
			m[i] &^= other[i]
		}
	}
}

// Intersects reports whether m and other share at least one endpoint.
// Endpoints beyond the shorter mask's range are treated as unmarked.
func (m Mask) Intersects(other Mask) bool {
	n := len(m)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		if m[i]&other[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every endpoint of m is also in other.
// Endpoints beyond the shorter mask's range are treated as unmarked.
func (m Mask) SubsetOf(other Mask) bool {
	for i, w := range m {
		var o uint64
		if i < len(other) {
			o = other[i]
		}
		if w&^o != 0 {
			return false
		}
	}
	return true
}

// IntersectInto stores a ∩ b into m (m must be at least as long as the
// shorter of a and b); words of m beyond that range are cleared.
func (m Mask) IntersectInto(a, b Mask) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if len(m) < n {
		n = len(m)
	}
	for i := 0; i < n; i++ {
		m[i] = a[i] & b[i]
	}
	for i := n; i < len(m); i++ {
		m[i] = 0
	}
}

// OrInto adds all endpoints of other to m in place; endpoints of other
// beyond m's range are dropped.
func (m Mask) OrInto(other Mask) {
	n := len(m)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		m[i] |= other[i]
	}
}
