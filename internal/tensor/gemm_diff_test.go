//go:build amd64

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential kernel harness: every asm tier is checked against an exact
// scalar mimic (or against its sibling tier) on randomized shapes, so a
// wrong assembly offset fails `go test` directly instead of surfacing as a
// downstream metric drift.
//
// What "exact" means per tier:
//   - portable: every element is a plain mul+add chain in ascending
//     reduction order, reproduced bit-for-bit by a naive scalar loop;
//   - AVX2/AVX-512 f64: fused rows (the tile-aligned multiple-of-4 prefix
//     of each shard) are math.FMA chains, tail rows mul+add — both mimicked
//     exactly in scalar code;
//   - AVX2 vs AVX-512 f32: the tiers share per-element accumulation order
//     and fusion, so their outputs are compared bit-for-bit against each
//     other (Go has no scalar float32 FMA to mimic against), plus a
//     tolerance check against a float64 reference to catch errors that
//     corrupt both tiers identically (they share no assembly, so a common
//     wrong offset would have to be a driver bug, covered by the f64 mimic).

// gemmForm names one of the three product forms.
type gemmForm int

const (
	formNN gemmForm = iota
	formATB
	formABT
)

// operandShapes returns the a/b/out shapes of a form for (m,k,n).
func operandShapes(form gemmForm, m, k, n int) (ar, ac, br, bc, or_, oc int) {
	switch form {
	case formNN:
		return m, k, k, n, m, n
	case formATB:
		return m, k, m, n, k, n
	default:
		return m, k, n, k, m, n
	}
}

// opShardPlan reproduces the standalone drivers' shard geometry for one
// product: the tile-aligned chunk size and shard count that runSharded /
// runShardedAT would use for the given output rows and multiply-add count.
func opShardPlan(rows, work int) (chunk, nsh int) {
	shards := gemmShards(rows, work)
	if shards <= 1 {
		return rows, 1
	}
	chunk, nsh = shardRanges(rows, shards)
	if nsh <= 1 {
		return rows, 1
	}
	return chunk, nsh
}

func equalBits(t *testing.T, ctx string, a, b *Tensor) {
	t.Helper()
	if a.DT.Backing() == F32 {
		for i := range a.F32 {
			if math.Float32bits(a.F32[i]) != math.Float32bits(b.F32[i]) {
				t.Fatalf("%s: element %d differs: %x vs %x", ctx, i, math.Float32bits(a.F32[i]), math.Float32bits(b.F32[i]))
			}
		}
		return
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("%s: element %d differs: %x vs %x", ctx, i, math.Float64bits(a.Data[i]), math.Float64bits(b.Data[i]))
		}
	}
}

// tierState saves and force-sets the kernel dispatch tiers.
type tierState struct{ fma, fma32, a512, a51232 bool }

func setTiers(fma, avx512 bool) tierState {
	s := tierState{useFMA, useFMA32, useAVX512, useAVX51232}
	useFMA, useFMA32 = fma, fma
	useAVX512, useAVX51232 = avx512, avx512
	return s
}

func (s tierState) restore() {
	useFMA, useFMA32 = s.fma, s.fma32
	useAVX512, useAVX51232 = s.a512, s.a51232
}

// runForm invokes the public driver for the form. a is m×k; b is k×n (NN),
// m×n (ATB: out is k×n), or n×k (ABT: out is m×n).
func runForm(form gemmForm, out, a, b *Tensor, acc bool) {
	switch {
	case form == formNN && !acc:
		MatMulInto(out, a, b)
	case form == formNN && acc:
		gemmNN(out, a, b, true)
	case form == formATB && !acc:
		MatMulATBInto(out, a, b)
	case form == formATB && acc:
		MatMulATBAcc(out, a, b)
	case form == formABT && !acc:
		MatMulABTInto(out, a, b)
	default:
		MatMulABTAcc(out, a, b)
	}
}

// mimicF64 reproduces the blocked drivers' f64 arithmetic exactly in scalar
// code: the same shard plan, the same fused-row classes when fused is true
// (asm tiers), plain mul+add everywhere when false (portable tier).
func mimicF64(form gemmForm, out, a, b []float64, m, k, n int, acc, fused bool) {
	rows, red := m, k
	if form == formATB {
		rows, red = k, m
	}
	cols := n
	chunk, nsh := opShardPlan(rows, m*k*n)
	for s := 0; s < nsh; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		fmaHi := lo + ((hi-lo)/4)*4
		for r := lo; r < hi; r++ {
			rowFused := fused && r < fmaHi
			for j := 0; j < cols; j++ {
				// Every kernel seeds the accumulator from out up front.
				var c float64
				if acc {
					c = out[r*cols+j]
				}
				for t := 0; t < red; t++ {
					var av, bv float64
					switch form {
					case formNN:
						av, bv = a[r*k+t], b[t*n+j]
					case formATB:
						av, bv = a[t*k+r], b[t*n+j]
					case formABT:
						av, bv = a[r*k+t], b[j*k+t]
					}
					if rowFused {
						c = math.FMA(av, bv, c)
					} else {
						c += av * bv
					}
				}
				out[r*cols+j] = c
			}
		}
	}
}

// mimicRef32 computes a float64 reference from float32 inputs for the
// tolerance check of the f32 tiers.
func mimicRef32(form gemmForm, out []float64, a, b []float32, m, k, n int, acc bool) {
	rows, red := m, k
	if form == formATB {
		rows, red = k, m
	}
	for r := 0; r < rows; r++ {
		for j := 0; j < n; j++ {
			var c float64
			if acc {
				c = out[r*n+j]
			}
			for t := 0; t < red; t++ {
				var av, bv float32
				switch form {
				case formNN:
					av, bv = a[r*k+t], b[t*n+j]
				case formATB:
					av, bv = a[t*k+r], b[t*n+j]
				case formABT:
					av, bv = a[r*k+t], b[j*k+t]
				}
				c += float64(av) * float64(bv)
			}
			out[r*n+j] = c
		}
	}
}

// diffShapes is the randomized shape set: micro-kernel boundary cases (tile
// widths 4/8/16 and their neighbours) plus a few larger blocks crossing the
// gemmKC panel boundary via k.
func diffShapes(rng *rand.Rand) [][3]int {
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {4, 5, 8}, {5, 7, 9}, {7, 8, 15},
		{8, 8, 16}, {9, 16, 17}, {12, 300, 5}, {16, 31, 16}, {17, 33, 23},
		{24, 16, 33}, {33, 257, 31},
	}
	for i := 0; i < 6; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	return shapes
}

// fillNonzero fills t with nonzero uniform values (the portable ATB kernel
// skips zero multiplicands, which the mimics do not model).
func fillNonzero(t *Tensor, rng *rand.Rand) {
	t.FillUniform(rng, -1, 1)
	if t.DT.Backing() == F32 {
		for i, v := range t.F32 {
			if v == 0 {
				t.F32[i] = 0.5
			}
		}
		return
	}
	for i, v := range t.Data {
		if v == 0 {
			t.Data[i] = 0.5
		}
	}
}

func TestGEMMDifferentialF64(t *testing.T) {
	if !detectFMA() {
		t.Skip("no AVX2+FMA on this host")
	}
	defer setTiers(false, false).restore()
	rng := rand.New(rand.NewSource(41))
	tiers := []struct {
		name        string
		fma, avx512 bool
	}{{"portable", false, false}, {"avx2", true, false}}
	if detectAVX512() {
		tiers = append(tiers, struct {
			name        string
			fma, avx512 bool
		}{"avx512", true, true})
	}
	for _, shape := range diffShapes(rng) {
		m, k, n := shape[0], shape[1], shape[2]
		for form := formNN; form <= formABT; form++ {
			ar, ac, br, bc, orr, oc := operandShapes(form, m, k, n)
			a := New(ar, ac)
			b := New(br, bc)
			fillNonzero(a, rng)
			fillNonzero(b, rng)
			for _, acc := range []bool{false, true} {
				seed := New(orr, oc)
				fillNonzero(seed, rng)
				for _, tier := range tiers {
					setTiers(tier.fma, tier.avx512)
					got := seed.Clone()
					runForm(form, got, a, b, acc)
					ref := make([]float64, orr*oc)
					if acc {
						copy(ref, seed.Data)
					}
					mimicF64(form, ref, a.Data, b.Data, m, k, n, acc, tier.fma)
					for i := range ref {
						if math.Float64bits(ref[i]) != math.Float64bits(got.Data[i]) {
							t.Fatalf("%s form=%d m=%d k=%d n=%d acc=%v: element %d = %x, mimic %x",
								tier.name, form, m, k, n, acc, i,
								math.Float64bits(got.Data[i]), math.Float64bits(ref[i]))
						}
					}
				}
			}
		}
	}
}

func TestGEMMDifferentialF32(t *testing.T) {
	if !detectFMA() {
		t.Skip("no AVX2+FMA on this host")
	}
	hasAVX512 := detectAVX512()
	defer setTiers(false, false).restore()
	rng := rand.New(rand.NewSource(43))
	for _, shape := range diffShapes(rng) {
		m, k, n := shape[0], shape[1], shape[2]
		for form := formNN; form <= formABT; form++ {
			ar, ac, br, bc, orr, oc := operandShapes(form, m, k, n)
			a := NewOf(F32, ar, ac)
			b := NewOf(F32, br, bc)
			fillNonzero(a, rng)
			fillNonzero(b, rng)
			for _, acc := range []bool{false, true} {
				seed := NewOf(F32, orr, oc)
				fillNonzero(seed, rng)

				// Portable tier: exact against the naive mul+add mimic.
				setTiers(false, false)
				portable := seed.Clone()
				runForm(form, portable, a, b, acc)
				ref32 := make([]float32, orr*oc)
				if acc {
					copy(ref32, seed.F32)
				}
				mimicMulAdd32(form, ref32, a.F32, b.F32, m, k, n)
				for i := range ref32 {
					if math.Float32bits(ref32[i]) != math.Float32bits(portable.F32[i]) {
						t.Fatalf("portable form=%d m=%d k=%d n=%d acc=%v: element %d = %x, mimic %x",
							form, m, k, n, acc, i, math.Float32bits(portable.F32[i]), math.Float32bits(ref32[i]))
					}
				}

				// AVX2 tier: tolerance against a float64 reference.
				setTiers(true, false)
				avx2 := seed.Clone()
				runForm(form, avx2, a, b, acc)
				ref := make([]float64, orr*oc)
				if acc {
					for i, v := range seed.F32 {
						ref[i] = float64(v)
					}
				}
				mimicRef32(form, ref, a.F32, b.F32, m, k, n, acc)
				for i := range ref {
					if d := math.Abs(float64(avx2.F32[i]) - ref[i]); d > 1e-4*(1+math.Abs(ref[i])) {
						t.Fatalf("avx2 form=%d m=%d k=%d n=%d acc=%v: element %d = %v, reference %v",
							form, m, k, n, acc, i, avx2.F32[i], ref[i])
					}
				}

				// AVX-512 tier: bit-identical to the AVX2 tier.
				if hasAVX512 {
					setTiers(true, true)
					avx512 := seed.Clone()
					runForm(form, avx512, a, b, acc)
					for i := range avx512.F32 {
						if math.Float32bits(avx512.F32[i]) != math.Float32bits(avx2.F32[i]) {
							t.Fatalf("avx512 form=%d m=%d k=%d n=%d acc=%v: element %d = %x, avx2 %x",
								form, m, k, n, acc, i, math.Float32bits(avx512.F32[i]), math.Float32bits(avx2.F32[i]))
						}
					}
				}
			}
		}
	}
}

// mimicMulAdd32 is the naive mul+add float32 reference, exact for the
// portable tier (accumulation is per-element sequential there too). out
// holds the accumulator seed: the prior contents for acc, zeros otherwise.
func mimicMulAdd32(form gemmForm, out []float32, a, b []float32, m, k, n int) {
	rows, red := m, k
	if form == formATB {
		rows, red = k, m
	}
	for r := 0; r < rows; r++ {
		for j := 0; j < n; j++ {
			c := out[r*n+j]
			for t := 0; t < red; t++ {
				var av, bv float32
				switch form {
				case formNN:
					av, bv = a[r*k+t], b[t*n+j]
				case formATB:
					av, bv = a[t*k+r], b[t*n+j]
				case formABT:
					av, bv = a[r*k+t], b[j*k+t]
				}
				c += av * bv
			}
			out[r*n+j] = c
		}
	}
}

// TestGEMMPackFreeMatchesPacked pins the in-place B path of the A·B drivers
// (shards of one or two register tiles skip packing) to the packed path,
// bit for bit, on every asm tier: output heights around the 4/8-row tiles
// (8, 16 and 24 rows, whose shards straddle the threshold), full and
// partial column tiles of the 8- and 16-wide panels, reductions crossing
// gemmKC, with and without accumulation.
func TestGEMMPackFreeMatchesPacked(t *testing.T) {
	if !detectFMA() {
		t.Skip("no AVX2+FMA on this host")
	}
	defer setTiers(false, false).restore()
	defer func(v int) { packFreeTiles = v }(packFreeTiles)
	tiers := [][2]bool{{true, false}}
	if detectAVX512() {
		tiers = append(tiers, [2]bool{true, true})
	}
	rng := rand.New(rand.NewSource(47))
	for _, dt := range []DType{F64, F32} {
		for _, m := range []int{1, 4, 7, 8, 12, 16, 17, 24, 32} {
			for _, n := range []int{5, 8, 16, 21, 40, 288} {
				for _, k := range []int{1, 9, 72, 300} {
					a := NewOf(dt, m, k)
					b := NewOf(dt, k, n)
					seed := NewOf(dt, m, n)
					fillNonzero(a, rng)
					fillNonzero(b, rng)
					fillNonzero(seed, rng)
					for _, tier := range tiers {
						setTiers(tier[0], tier[1])
						for _, acc := range []bool{false, true} {
							packFreeTiles = 0
							packed := seed.Clone()
							gemmNN(packed, a, b, acc)
							packFreeTiles = 2
							direct := seed.Clone()
							gemmNN(direct, a, b, acc)
							equalBits(t, fmt.Sprintf("dt=%v tier=%v m=%d n=%d k=%d acc=%v: in-place B vs packed",
								dt, tier, m, n, k, acc), direct, packed)
						}
					}
				}
			}
		}
	}
}
