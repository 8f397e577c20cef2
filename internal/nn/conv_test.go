package nn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func bitsEqual(t *testing.T, ctx string, a, b *tensor.Tensor) {
	t.Helper()
	if a.DT.Backing() == tensor.F32 {
		av, bv := tensor.Of[float32](a), tensor.Of[float32](b)
		for i := range av {
			if math.Float32bits(av[i]) != math.Float32bits(bv[i]) {
				t.Fatalf("%s: element %d: %x vs %x", ctx, i, math.Float32bits(av[i]), math.Float32bits(bv[i]))
			}
		}
		return
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("%s: element %d: %x vs %x", ctx, i, math.Float64bits(a.Data[i]), math.Float64bits(b.Data[i]))
		}
	}
}

// refConvStep is the batch-wide lowering the chunked Conv2D replaced, kept
// only as the differential reference: the whole batch goes into one
// [groups·kernelElems, N·spatial] im2col matrix, the forward is one GEMM per
// group followed by the bias-fused scatter, and the backward gathers the
// output gradient channel-major, reduces the bias, computes dWᵀ = cols·gmatᵀ
// and dcols = Wᵀ·gmat over the whole batch and scatters dcols back with
// col2im. It accumulates into c's parameter gradients and returns the output
// and dX.
func refConvStep[F tensor.Float](c *Conv2D, x, grad *tensor.Tensor) (out, dx *tensor.Tensor) {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	c.inH, c.inW = h, w
	c.outH, c.outW = c.OutputShape(h, w)
	sp := c.outH * c.outW
	ns := n * sp
	ke, ocg := c.kernelElems, c.outCPerGroup
	dt := x.DT
	var wv, av, bv, ov tensor.Tensor

	cols := tensor.NewOf(dt, c.Groups*ke, ns)
	xd, colsd := tensor.Of[F](x), tensor.Of[F](cols)
	for i := 0; i < n; i++ {
		im2col(c, xd, colsd, i, i, ns)
	}
	out = tensor.NewOf(dt, n, c.OutC, c.outH, c.outW)
	outd, bias := tensor.Of[F](out), tensor.Of[F](c.B.Value)
	prod := tensor.NewOf(dt, ocg, ns)
	pd := tensor.Of[F](prod)
	for g := 0; g < c.Groups; g++ {
		tensor.ViewInto(&wv, c.W.Value, g*ocg*ke, (g+1)*ocg*ke, ocg, ke)
		tensor.ViewInto(&av, cols, g*ke*ns, (g+1)*ke*ns, ke, ns)
		tensor.MatMulInto(prod, &wv, &av)
		for oc := 0; oc < ocg; oc++ {
			ch := g*ocg + oc
			for i := 0; i < n; i++ {
				tensor.AddScalarInto(outd[(i*c.OutC+ch)*sp:(i*c.OutC+ch+1)*sp], pd[oc*ns+i*sp:oc*ns+(i+1)*sp], bias[ch])
			}
		}
	}

	gmat := tensor.NewOf(dt, c.OutC, ns)
	gm, gd, db := tensor.Of[F](gmat), tensor.Of[F](grad), tensor.Of[F](c.B.Grad)
	for ch := 0; ch < c.OutC; ch++ {
		tensor.CopyRows(gm[ch*ns:], gd[ch*sp:], n, sp, sp, c.OutC*sp)
		var s F
		for _, v := range gm[ch*ns : (ch+1)*ns] {
			s += v
		}
		db[ch] += s
	}
	dcols := tensor.NewOf(dt, c.Groups*ke, ns)
	dwt := tensor.NewOf(dt, ke, ocg)
	dw := tensor.Of[F](c.W.Grad)
	for g := 0; g < c.Groups; g++ {
		tensor.ViewInto(&av, cols, g*ke*ns, (g+1)*ke*ns, ke, ns)
		tensor.ViewInto(&bv, gmat, g*ocg*ns, (g+1)*ocg*ns, ocg, ns)
		tensor.MatMulABTInto(dwt, &av, &bv)
		addTransposed(dw[g*ocg*ke:(g+1)*ocg*ke], tensor.Of[F](dwt), ocg, ke)
		tensor.ViewInto(&wv, c.W.Value, g*ocg*ke, (g+1)*ocg*ke, ocg, ke)
		tensor.ViewInto(&ov, dcols, g*ke*ns, (g+1)*ke*ns, ke, ns)
		tensor.MatMulATBInto(&ov, &wv, &bv)
	}
	dx = tensor.NewOf(dt, n, c.InC, h, w)
	dcd, dxd := tensor.Of[F](dcols), tensor.Of[F](dx)
	for i := 0; i < n; i++ {
		col2im(c, dcd, dxd, i, i, ns)
	}
	return out, dx
}

func newTestConv(inC, outC, k, stride, pad, groups int, dt tensor.DType, seed int64) *Conv2D {
	c := NewConv2D(inC, outC, k, stride, pad, groups, rand.New(rand.NewSource(seed)))
	c.B.Value.FillUniform(rand.New(rand.NewSource(seed+1)), -0.5, 0.5)
	ConvertParams(c.Params(), dt)
	return c
}

// TestConv2DChunkedMatchesBatchWide is the differential gate for the chunked
// lowering: output, dX, dW and dB must equal the batch-wide reference bit for
// bit over strides, paddings, kernel sizes and group counts, at batch sizes
// that hit one sample, a partial chunk, many chunks and every chunk boundary
// ±1, for each dtype, serially and on the whole worker pool.
func TestConv2DChunkedMatchesBatchWide(t *testing.T) {
	const inC, outC, hw = 4, 8, 12
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32, tensor.BF16} {
		for _, workers := range []int{1, tensor.Workers()} {
			prev := tensor.SetMaxWorkers(workers)
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1} {
					for _, k := range []int{1, 3} {
						for _, groups := range []int{1, 2, 4} {
							probe := newTestConv(inC, outC, k, stride, pad, groups, dt, 1)
							oh, ow := probe.OutputShape(hw, hw)
							probe.outH, probe.outW = oh, ow
							cs := probe.chunkSamples(1 << 20)
							ns := map[int]bool{1: true, 3: true, 37: true}
							for _, b := range []int{cs, 2 * cs} {
								for _, d := range []int{-1, 0, 1} {
									if b+d >= 1 {
										ns[b+d] = true
									}
								}
							}
							for n := range ns {
								name := fmt.Sprintf("%v/w%d/s%d/p%d/k%d/g%d/n%d", dt, workers, stride, pad, k, groups, n)
								checkConvAgainstRef(t, name, dt, inC, outC, k, stride, pad, groups, hw, n)
							}
						}
					}
				}
			}
			tensor.SetMaxWorkers(prev)
		}
	}
}

func checkConvAgainstRef(t *testing.T, name string, dt tensor.DType, inC, outC, k, stride, pad, groups, hw, n int) {
	t.Helper()
	seed := int64(n*7 + k*3 + groups)
	got := newTestConv(inC, outC, k, stride, pad, groups, dt, seed)
	ref := newTestConv(inC, outC, k, stride, pad, groups, dt, seed)
	rng := rand.New(rand.NewSource(seed + 2))
	x := tensor.NewOf(dt, n, inC, hw, hw)
	x.FillUniform(rng, -1, 1)
	oh, ow := got.OutputShape(hw, hw)
	grad := tensor.NewOf(dt, n, outC, oh, ow)
	grad.FillUniform(rng, -1, 1)

	y := got.Forward(x, true)
	dx := got.Backward(grad)
	var ry, rdx *tensor.Tensor
	if dt.Backing() == tensor.F32 {
		ry, rdx = refConvStep[float32](ref, x, grad)
	} else {
		ry, rdx = refConvStep[float64](ref, x, grad)
	}
	bitsEqual(t, name+" output", y, ry)
	bitsEqual(t, name+" dx", dx, rdx)
	bitsEqual(t, name+" dW", got.W.Grad, ref.W.Grad)
	bitsEqual(t, name+" dB", got.B.Grad, ref.B.Grad)
}

// TestConv2DBackwardGuard checks the retained-input contract: Backward
// re-lowers the input of the last training-mode Forward, so it must refuse
// to run with none retained — before any Forward, or after an eval-mode
// Forward (even one of the same batch size, which would otherwise silently
// differentiate the wrong input).
func TestConv2DBackwardGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv2D(2, 4, 3, 1, 1, 1, rng)
	x := tensor.New(3, 2, 6, 6)
	x.FillRandn(rng, 1)
	grad := tensor.New(3, 4, 6, 6)
	grad.FillRandn(rng, 1)

	mustPanic := func(what string) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: Backward did not panic", what)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, "training-mode Forward") {
				t.Fatalf("%s: unclear panic %q", what, msg)
			}
		}()
		c.Backward(grad)
	}
	mustPanic("no Forward")

	c.Forward(x, true)
	c.Backward(grad) // armed: fine

	other := tensor.New(3, 2, 6, 6)
	other.FillRandn(rng, 1)
	c.Forward(x, true)
	c.Forward(other, false)
	mustPanic("eval Forward in between")

	c.Forward(x, true)
	c.Backward(grad) // a new training Forward re-arms it
}

// layerOwnedBytes sums the float storage reachable from a layer's fields,
// skipping the named top-level fields. It follows pointers, structs, slices
// and arrays, so a workspace added to the struct in any form is counted.
func layerOwnedBytes(layer any, skip ...string) int {
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value) int
	walk = func(v reflect.Value) int {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				return 0
			}
			if v.Kind() == reflect.Pointer {
				if seen[v.Pointer()] {
					return 0
				}
				seen[v.Pointer()] = true
			}
			return walk(v.Elem())
		case reflect.Struct:
			total := 0
			for i := 0; i < v.NumField(); i++ {
				total += walk(v.Field(i))
			}
			return total
		case reflect.Slice:
			switch v.Type().Elem().Kind() {
			case reflect.Float64, reflect.Float32:
				return v.Cap() * int(v.Type().Elem().Size())
			}
			total := 0
			for i := 0; i < v.Len(); i++ {
				total += walk(v.Index(i))
			}
			return total
		case reflect.Array:
			total := 0
			for i := 0; i < v.Len(); i++ {
				total += walk(v.Index(i))
			}
			return total
		}
		return 0
	}
	v := reflect.ValueOf(layer).Elem()
	total := 0
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		skipped := false
		for _, s := range skip {
			skipped = skipped || s == name
		}
		if !skipped {
			total += walk(v.Field(i))
		}
	}
	return total
}

// TestConv2DFootprintIndependentOfBatch: after a train step, the storage a
// Conv2D holds beyond its activations — the output ring, the input gradient
// and the retained input, which are the batch's own tensors — must not grow
// with the batch. Lowering scratch is chunk sized and lent per call, never
// kept by the layer.
func TestConv2DFootprintIndependentOfBatch(t *testing.T) {
	retained := func(n int) int {
		rng := rand.New(rand.NewSource(6))
		c := NewConv2D(8, 8, 3, 1, 1, 1, rng)
		x := tensor.New(n, 8, 12, 12)
		x.FillRandn(rng, 1)
		grad := tensor.New(n, 8, 12, 12)
		grad.FillRandn(rng, 1)
		for step := 0; step < 2; step++ {
			c.Forward(x, true)
			c.Backward(grad)
		}
		return layerOwnedBytes(c, "out", "dx", "x")
	}
	small, large := retained(8), retained(64)
	if small != large {
		t.Fatalf("Conv2D retains %d bytes beyond its activations at N=8 but %d at N=64", small, large)
	}
	if params := 2 * 8 * (8*9 + 1) * 8; small != params {
		t.Fatalf("Conv2D retains %d bytes beyond its activations, want only its %d parameter bytes", small, params)
	}
}
