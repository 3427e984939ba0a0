package partition

import (
	"math"
	"math/rand"
	"testing"
)

// fixedSource is a rand.Source whose every Int63 is x, counting the
// calls, so a test chooses a row's uniform draw (x/2⁶³) outright.
type fixedSource struct {
	x     int64
	calls int
}

func (s *fixedSource) Int63() int64 { s.calls++; return s.x }
func (s *fixedSource) Seed(int64)   {}

// drawSource returns the source whose Float64 is the 53-bit draw d>>11
// scaled to [0, 1): the low ten bits of x stay zero, so x/2⁶³ is exact
// and below 1.
func drawSource(d uint64) *fixedSource {
	return &fixedSource{x: int64(d>>11) << 10}
}

// frozenSampleRow is one row of the frozen repair: exact sigmoids of
// the open crossbars, one draw when their sum is positive, the walk, or
// the least loaded open crossbar.
func frozenSampleRow(row []float32, loads []int, size int, rng *rand.Rand) int {
	probs := make([]float64, len(row))
	var sum float64
	for k, v := range row {
		if loads[k] >= size {
			continue
		}
		probs[k] = frozenSigmoid(float64(v))
		sum += probs[k]
	}
	chosen := -1
	if sum <= 0 {
		for k := range row {
			if loads[k] < size && (chosen < 0 || loads[k] < loads[chosen]) {
				chosen = k
			}
		}
		return chosen
	}
	r := rng.Float64() * sum
	for k := range row {
		if probs[k] <= 0 {
			continue
		}
		r -= probs[k]
		chosen = k
		if r <= 0 {
			break
		}
	}
	return chosen
}

// rouletteVMax are the clamps the fuzz target draws from: the default,
// tighter and looser ones, and one past which exp overflows.
var rouletteVMax = []float32{4, 1, 0.5, 10, 30, 800}

// rouletteRow decodes a fuzzed row: three bytes per crossbar, at most 64,
// a mode byte and a 16-bit fraction. Most entries are uniform in
// (−vmax, vmax); some sit on either clamp, a few are NaN or outside it.
// closed marks full crossbars (one stays open), the rest carry loads
// below size.
func rouletteRow(vmax float32, closed uint64, data []byte) (row []float32, loads []int, size int) {
	c := min(len(data)/3, 64)
	row = make([]float32, c)
	loads = make([]int, c)
	size = 8
	for k := range row {
		mode, frac := data[3*k], float64(uint16(data[3*k+1])<<8|uint16(data[3*k+2]))/65535
		switch {
		case mode < 40:
			row[k] = vmax
		case mode < 80:
			row[k] = -vmax
		case mode == 80:
			row[k] = float32(math.NaN())
		case mode == 81:
			row[k] = vmax * float32(1+frac)
		default:
			row[k] = float32((2*frac - 1) * float64(vmax))
		}
		loads[k] = int(mode) % size
		if closed>>k&1 == 1 {
			loads[k] = size
		}
	}
	if c > 0 && closed&(1<<c-1) == 1<<c-1 {
		loads[0] = 0
	}
	return row, loads, size
}

// prefixSums returns the exact running sums of the open crossbars'
// sigmoids, in row order; the last is the row's sum.
func prefixSums(row []float32, loads []int, size int) []float64 {
	var sum float64
	var prefix []float64
	for k, v := range row {
		if loads[k] < size {
			sum += frozenSigmoid(float64(v))
			prefix = append(prefix, sum)
		}
	}
	return prefix
}

// drawAt returns the draw whose uniform is u, to 53 bits.
func drawAt(u float64) uint64 { return uint64(u*(1<<53)) << 11 }

// boundaryDraw returns a draw whose scaled uniform lands on an exact
// prefix sum of the open crossbars, the j-th short of the whole sum
// (within 2⁻⁵³ relative), where the squeeze cannot decide. With one open
// crossbar it returns the largest draw, whose remainder is −2⁻⁵³·σ.
func boundaryDraw(row []float32, loads []int, size, j int) uint64 {
	prefix := prefixSums(row, loads, size)
	if len(prefix) < 2 {
		return math.MaxUint64
	}
	return drawAt(prefix[j%(len(prefix)-1)] / prefix[len(prefix)-1])
}

// checkSampleMatchesExact samples the row with the roulette and with the
// frozen row, each on its own source of the same draw, and requires the
// same crossbar and the same number of draws. It returns the work.
func checkSampleMatchesExact(t *testing.T, vmax float32, row []float32, loads []int, size int, draw uint64) psoWork {
	t.Helper()
	ro := newRoulette(vmax, len(row))
	var w psoWork
	gotSrc := drawSource(draw)
	got := ro.sample(row, loads, size, make([]float64, len(row)), rand.New(gotSrc), &w)
	wantSrc := drawSource(draw)
	want := frozenSampleRow(row, loads, size, rand.New(wantSrc))
	if got != want || gotSrc.calls != wantSrc.calls {
		t.Fatalf("vmax=%v row=%v loads=%v draw=%#x: sampled %d with %d draws, exact %d with %d",
			vmax, row, loads, draw, got, gotSrc.calls, want, wantSrc.calls)
	}
	return w
}

// FuzzPSOSampleMatchesExact holds the squeezed roulette to the exact one
// on fuzzed rows, closed-crossbar masks and draws. The seed corpus adds
// rows whose draw lands on a prefix sum, forcing the exact path.
func FuzzPSOSampleMatchesExact(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 24; i++ {
		data := make([]byte, 3*(2+rng.Intn(20)))
		rng.Read(data)
		vsel, closed := uint8(i), rng.Uint64()
		row, loads, size := rouletteRow(rouletteVMax[int(vsel)%len(rouletteVMax)], closed, data)
		f.Add(vsel, closed, rng.Uint64(), data)
		f.Add(vsel, closed, boundaryDraw(row, loads, size, i), data)
	}
	f.Fuzz(func(t *testing.T, vsel uint8, closed, draw uint64, data []byte) {
		vmax := rouletteVMax[int(vsel)%len(rouletteVMax)]
		row, loads, size := rouletteRow(vmax, closed, data)
		if len(row) == 0 {
			return
		}
		checkSampleMatchesExact(t, vmax, row, loads, size, draw)
	})
}

// TestRouletteExactPath checks the two ways a row leaves the table: a
// draw on a prefix sum is redone exactly, and so is a row with a
// velocity outside the clamp; a draw away from every prefix sum is not.
func TestRouletteExactPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		c := 3 + rng.Intn(30) // at least two open crossbars
		row, loads := make([]float32, c), make([]int, c)
		for k := range row {
			row[k] = float32((2*rng.Float64() - 1) * 4)
		}
		full := rng.Intn(c)
		loads[full] = 8
		open := c - 1
		if w := checkSampleMatchesExact(t, 4, row, loads, 8, boundaryDraw(row, loads, 8, trial)); w.exactRows != 1 || w.sigmoids != int64(open) {
			t.Fatalf("trial %d: a draw on a prefix sum did %+v, want one exact row of %d sigmoids", trial, w, open)
		}
		// Halfway between the first two prefix sums of open crossbars.
		prefix := prefixSums(row, loads, 8)
		mid := drawAt((prefix[0] + prefix[1]) / 2 / prefix[len(prefix)-1])
		if w := checkSampleMatchesExact(t, 4, row, loads, 8, mid); w.exactRows != 0 {
			t.Fatalf("trial %d: a draw between prefix sums did %+v, want no exact row", trial, w)
		}
		row[(full+1+rng.Intn(c-1))%c] = 4.5 // an open crossbar
		if w := checkSampleMatchesExact(t, 4, row, loads, 8, mid); w.exactRows != 1 {
			t.Fatalf("trial %d: a velocity past the clamp did %+v, want one exact row", trial, w)
		}
	}
}
