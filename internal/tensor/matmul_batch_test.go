package tensor

import (
	"math"
	"math/rand"
	"testing"
)

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

// batchCase builds G operand triples for a form, all uniform (m,k,n) when
// uniform is true, otherwise with per-product shapes.
func batchCase(rng *rand.Rand, form gemmForm, dt DType, g int, uniform bool) (outs, as, bs []*Tensor) {
	m, k, n := 3+rng.Intn(20), 3+rng.Intn(20), 3+rng.Intn(20)
	for i := 0; i < g; i++ {
		if !uniform {
			m, k, n = 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		}
		ar, ac, br, bc, orr, oc := operandShapes(form, m, k, n)
		a := NewOf(dt, ar, ac)
		b := NewOf(dt, br, bc)
		o := NewOf(dt, orr, oc)
		a.FillUniform(rng, -1, 1)
		b.FillUniform(rng, -1, 1)
		o.FillUniform(rng, -1, 1)
		outs = append(outs, o)
		as = append(as, a)
		bs = append(bs, b)
	}
	return outs, as, bs
}

func cloneAll(ts []*Tensor) []*Tensor {
	out := make([]*Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
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

// TestMatMulBatchMatchesSingles is the grouping-invariance gate at the
// kernel level: every batched entry point must be byte-identical to the
// equivalent loop of standalone calls, at every worker cap, for uniform and
// heterogeneous batches, at every dtype.
func TestMatMulBatchMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	single := map[gemmForm][2]func(o, a, b *Tensor){
		formNN:  {func(o, a, b *Tensor) { MatMulInto(o, a, b) }, nil},
		formATB: {nil, func(o, a, b *Tensor) { MatMulATBAcc(o, a, b) }},
		formABT: {func(o, a, b *Tensor) { MatMulABTInto(o, a, b) }, func(o, a, b *Tensor) { MatMulABTAcc(o, a, b) }},
	}
	batch := map[gemmForm][2]func(o, a, b []*Tensor){
		formNN:  {MatMulBatchInto, nil},
		formATB: {nil, MatMulBatchATBAcc},
		formABT: {MatMulBatchABTInto, MatMulBatchABTAcc},
	}
	for _, dt := range []DType{F64, F32, BF16} {
		for form := formNN; form <= formABT; form++ {
			for _, uniform := range []bool{true, false} {
				for accIdx := 0; accIdx < 2; accIdx++ {
					if single[form][accIdx] == nil {
						continue
					}
					outs, as, bs := batchCase(rng, form, dt, 1+rng.Intn(5), uniform)
					ref := cloneAll(outs)
					for g := range ref {
						single[form][accIdx](ref[g], as[g], bs[g])
					}
					for _, workers := range []int{1, 2, Workers()} {
						prev := SetMaxWorkers(workers)
						got := cloneAll(outs)
						batch[form][accIdx](got, as, bs)
						SetMaxWorkers(prev)
						for g := range got {
							equalBits(t, "batch vs single", got[g], ref[g])
						}
					}
				}
			}
		}
	}
}

func TestMatMulBatchValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	MatMulBatchInto([]*Tensor{New(2, 2)}, nil, nil)
}
