package noc

import (
	"bytes"
	"testing"
)

// maskFromBytes builds a mask of n endpoints with one bit set per input
// byte (modulo n), so the fuzzer explores dense, sparse and repeated-bit
// shapes across word boundaries.
func maskFromBytes(n int, raw []byte) Mask {
	m := NewMask(n)
	for _, b := range raw {
		m.Set(int(b) % n)
	}
	return m
}

// FuzzMaskWordOps cross-checks the word-level mask operations against
// their ForEach/Test-based definitions, including masks of different
// lengths (bits beyond a shorter mask are unmarked by definition).
func FuzzMaskWordOps(f *testing.F) {
	f.Add([]byte{0, 63, 64, 127}, []byte{64, 200}, uint8(0))
	f.Add([]byte{}, []byte{1, 2, 3}, uint8(7))
	f.Add([]byte{255}, []byte{255}, uint8(255))
	f.Fuzz(func(t *testing.T, aRaw, bRaw []byte, sizes uint8) {
		// Derive two different endpoint counts so the operand word
		// lengths differ in roughly half the runs.
		na := 1 + int(sizes%3)*64 + 130
		nb := 1 + int(sizes/3%3)*64 + 130
		a := maskFromBytes(na, aRaw)
		b := maskFromBytes(nb, bRaw)

		wantIntersects := false
		a.ForEach(func(i int) {
			if b.Test(i) {
				wantIntersects = true
			}
		})
		if got := a.Intersects(b); got != wantIntersects {
			t.Fatalf("Intersects = %v, ForEach definition = %v", got, wantIntersects)
		}
		if got := b.Intersects(a); got != wantIntersects {
			t.Fatalf("Intersects not symmetric: %v vs %v", got, wantIntersects)
		}

		wantSubset := true
		a.ForEach(func(i int) {
			if !b.Test(i) {
				wantSubset = false
			}
		})
		if got := a.SubsetOf(b); got != wantSubset {
			t.Fatalf("SubsetOf = %v, ForEach definition = %v", got, wantSubset)
		}

		inter := maskFromBytes(na, aRaw) // stale bits must be overwritten
		inter.IntersectInto(a, b)
		want := NewMask(na)
		a.ForEach(func(i int) {
			if b.Test(i) && i < len(want)*64 {
				want.Set(i)
			}
		})
		if !bytes.Equal(maskWords(inter), maskWords(want)) {
			t.Fatalf("IntersectInto = %v, want %v", inter, want)
		}

		for _, from := range []int{0, int(sizes), 63, 64, na - 1} {
			want := -1
			for i := from; i < na; i++ {
				if a.Test(i) {
					want = i
					break
				}
			}
			if got := a.next(from); got != want {
				t.Fatalf("next(%d) = %d, Test scan = %d", from, got, want)
			}
		}

		union := a.Clone()
		union.OrInto(b)
		wantU := a.Clone()
		b.ForEach(func(i int) {
			if i < len(wantU)*64 {
				wantU.Set(i)
			}
		})
		if !bytes.Equal(maskWords(union), maskWords(wantU)) {
			t.Fatalf("OrInto = %v, want %v", union, wantU)
		}
	})
}

// maskWords flattens a mask for byte-wise comparison.
func maskWords(m Mask) []byte {
	out := make([]byte, 0, len(m)*8)
	for _, w := range m {
		for i := 0; i < 8; i++ {
			out = append(out, byte(w>>(8*i)))
		}
	}
	return out
}
