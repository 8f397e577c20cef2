package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over [N, C, H, W] inputs with optional grouped
// convolution (groups > 1 partitions input and output channels, as in
// ShuffleNet). Weights are stored as [outC, (inC/groups)·kH·kW].
//
// The batch is lowered a cache-sized chunk of samples at a time (see
// chunkSamples): each chunk unrolls into an im2col matrix of shape
// [groups·kernelElems, chunk·outH·outW] and runs one GEMM per group, so the
// GEMM operands stay cache resident at any batch size. Backward re-lowers
// each chunk from the input retained by the training-mode Forward (the
// retained-input contract in the package comment) instead of keeping a
// batch-wide matrix. Chunk scratch is scoped to one call and shared through
// convScratchPool, so the layer itself holds only its parameters and its
// output and input-gradient activations; steady-state training allocates
// nothing beyond the worker-pool dispatch closures.
type Conv2D struct {
	InC, OutC    int
	KH, KW       int
	Stride, Pad  int
	Groups       int
	W, B         *Param
	inH, inW     int // set on Forward
	outH, outW   int
	inCPerGroup  int
	outCPerGroup int
	kernelElems  int

	x   *tensor.Tensor // input of the last training-mode Forward; nil after an eval-mode Forward
	dx  *tensor.Tensor
	out ring2
}

// NewConv2D constructs a grouped convolution layer with He-normal weights.
func NewConv2D(inC, outC, k, stride, pad, groups int, rng *rand.Rand) *Conv2D {
	if groups < 1 || inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: Conv2D groups=%d must divide inC=%d and outC=%d", groups, inC, outC))
	}
	c := &Conv2D{
		InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad, Groups: groups,
		inCPerGroup:  inC / groups,
		outCPerGroup: outC / groups,
	}
	c.kernelElems = c.inCPerGroup * k * k
	c.W = newParam("conv.W", outC, c.kernelElems)
	c.B = newParam("conv.B", outC)
	heInit(c.W.Value, c.kernelElems, rng)
	return c
}

// OutputShape returns the spatial output size for a given input size.
func (c *Conv2D) OutputShape(h, w int) (int, int) {
	oh := (h+2*c.Pad-c.KH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KW)/c.Stride + 1
	return oh, ow
}

// convChunkCols is the cache budget of one lowering chunk, in im2col
// columns (output pixels). At the model zoo's widest layer (16 input
// channels, 3×3) a chunk's im2col matrix is then ~330 KB of float64 and
// stays L2 resident through its GEMM, where a batch-wide matrix at N=32
// spills.
const convChunkCols = 256

// chunkSamples returns how many samples one lowering chunk holds:
// ⌈convChunkCols/(outH·outW)⌉, at most n. It depends on the layer geometry
// alone.
func (c *Conv2D) chunkSamples(n int) int {
	sp := c.outH * c.outW
	return min((convChunkCols+sp-1)/sp, n)
}

// convScratch is one job's lowering scratch: a flat buffer holding the
// chunk operands (im2col matrix, product, gathered gradient, column
// gradient, dWᵀ) at offsets the job lays out, plus the view headers the
// GEMMs run on. The buffer carries the backing dtype, so BF16 and F32
// layers share it. The headers' shapes live in dims, so a fresh scratch
// costs two allocations, itself and its buffer; that keeps the allocation
// gates within budget under the race detector, where sync.Pool drops a
// random quarter of returned items.
type convScratch struct {
	buf            tensor.Tensor
	wv, av, bv, ov tensor.Tensor
	dims           [4][2]int
}

// convScratchPool lends scratch to Forward/Backward calls for their
// duration only. Idle scratch belongs to no layer and the garbage collector
// reclaims it, so models that are built, trained once and dropped (a lazy
// fleet) carry no lowering workspace.
var convScratchPool = sync.Pool{New: func() any {
	s := new(convScratch)
	s.wv.Shape, s.av.Shape = s.dims[0][:0], s.dims[1][:0]
	s.bv.Shape, s.ov.Shape = s.dims[2][:0], s.dims[3][:0]
	return s
}}

// reserve sizes the scratch buffer to n elements of dt's backing type and
// returns it; the contents are unspecified.
func (s *convScratch) reserve(dt tensor.DType, n int) *tensor.Tensor {
	s.buf.DT = dt.Backing()
	if s.buf.DT == tensor.F32 {
		if cap(s.buf.F32) < n {
			s.buf.F32 = make([]float32, n)
		}
		s.buf.F32 = s.buf.F32[:n]
	} else {
		if cap(s.buf.Data) < n {
			s.buf.Data = make([]float64, n)
		}
		s.buf.Data = s.buf.Data[:n]
	}
	return &s.buf
}

// Forward computes the convolution for a batch [N, C, H, W]. In training
// mode the layer retains x for Backward; an eval-mode Forward releases it.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D.Forward input shape %v, want [N,%d,H,W]", x.Shape, c.InC))
	}
	if x.DT != c.W.Value.DT {
		panic(fmt.Sprintf("nn: Conv2D.Forward input dtype %v, model is %v (cast inputs at the model boundary)", x.DT, c.W.Value.DT))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.OutputShape(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: Conv2D output %dx%d not positive for input %dx%d", oh, ow, h, w))
	}
	c.inH, c.inW, c.outH, c.outW = h, w, oh, ow
	c.x = nil
	if train {
		c.x = x
	}
	out := c.out.next(x.DT, n, c.OutC, oh, ow)
	if x.DT.Backing() == tensor.F32 {
		convForward[float32](c, x, out, n)
	} else {
		convForward[float64](c, x, out, n)
	}
	return out
}

// convForward lowers and multiplies the batch chunk by chunk. Chunks are
// independent, so contiguous runs of them spread across the worker pool,
// each run on its own scratch.
func convForward[F tensor.Float](c *Conv2D, x, out *tensor.Tensor, n int) {
	cs := c.chunkSamples(n)
	tensor.ParallelSharded((n+cs-1)/cs, tensor.Workers(), func(_, lo, hi int) {
		s := convScratchPool.Get().(*convScratch)
		for k := lo; k < hi; k++ {
			convForwardChunk[F](c, s, x, out, k*cs, min((k+1)*cs, n))
		}
		convScratchPool.Put(s)
	})
}

// convForwardChunk computes the outputs of samples [i0,i1): im2col into the
// scratch, then per group one GEMM and the bias add. A one-sample
// chunk's per-group product is a contiguous [outCPerGroup, spatial] block of
// the NCHW output, so the GEMM writes it in place; wider chunks scatter
// from a product buffer. Either way each output is its GEMM dot product plus
// the bias, rounded in that order.
func convForwardChunk[F tensor.Float](c *Conv2D, s *convScratch, x, out *tensor.Tensor, i0, i1 int) {
	sp := c.outH * c.outW
	m := (i1 - i0) * sp
	ke, ocg := c.kernelElems, c.outCPerGroup
	colsN := c.Groups * ke * m
	buf := s.reserve(x.DT, colsN+ocg*m) // cols, then the product
	xd, bd := tensor.Of[F](x), tensor.Of[F](buf)
	for i := i0; i < i1; i++ {
		im2col(c, xd, bd, i, i-i0, m)
	}
	outd, bias := tensor.Of[F](out), tensor.Of[F](c.B.Value)
	for g := 0; g < c.Groups; g++ {
		tensor.ViewInto(&s.wv, c.W.Value, g*ocg*ke, (g+1)*ocg*ke, ocg, ke)
		tensor.ViewInto(&s.av, buf, g*ke*m, (g+1)*ke*m, ke, m)
		if i1-i0 == 1 {
			lo := (i0*c.OutC + g*ocg) * sp
			tensor.ViewInto(&s.ov, out, lo, lo+ocg*sp, ocg, sp)
			tensor.MatMulInto(&s.ov, &s.wv, &s.av)
			for oc := 0; oc < ocg; oc++ {
				plane := outd[lo+oc*sp : lo+(oc+1)*sp]
				tensor.AddScalarInto(plane, plane, bias[g*ocg+oc])
			}
			continue
		}
		tensor.ViewInto(&s.ov, buf, colsN, colsN+ocg*m, ocg, m)
		tensor.MatMulInto(&s.ov, &s.wv, &s.av)
		pd := bd[colsN:]
		for oc := 0; oc < ocg; oc++ {
			ch := g*ocg + oc
			for i := i0; i < i1; i++ {
				src := pd[oc*m+(i-i0)*sp : oc*m+(i-i0+1)*sp]
				tensor.AddScalarInto(outd[(i*c.OutC+ch)*sp:(i*c.OutC+ch+1)*sp], src, bias[ch])
			}
		}
	}
}

// convInitsDX reports whether col2im's same-size fast path initializes every
// dx channel plane itself (first tap writes, later taps accumulate); callers
// only pre-zero dx when it does not.
func (c *Conv2D) convInitsDX() bool {
	return c.Stride == 1 && c.outW == c.inW && c.outH == c.inH
}

// Backward accumulates dW, dB and returns dX. It re-lowers the input
// retained by the preceding training-mode Forward, so it panics when there
// is none (no training Forward yet, or an eval-mode Forward since).
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.x == nil {
		panic("nn: Conv2D.Backward needs the input of a preceding training-mode Forward; " +
			"none is retained (no Forward(x, true) yet, or a Forward(x, false) ran in between)")
	}
	n := c.x.Dim(0)
	if grad.Rank() != 4 || grad.Dim(0) != n || grad.Dim(1) != c.OutC || grad.Dim(2) != c.outH || grad.Dim(3) != c.outW {
		panic(fmt.Sprintf("nn: Conv2D.Backward grad shape %v does not match forward output [%d,%d,%d,%d]",
			grad.Shape, n, c.OutC, c.outH, c.outW))
	}
	c.dx = tensor.EnsureOf(grad.DT, c.dx, n, c.InC, c.inH, c.inW)
	if !c.convInitsDX() {
		c.dx.Zero()
	}
	if grad.DT.Backing() == tensor.F32 {
		convBackward[float32](c, grad, n)
	} else {
		convBackward[float64](c, grad, n)
	}
	return c.dx
}

// convBackward splits the backward pass into two independent jobs that
// share one pool dispatch: job 0 reduces the bias and weight gradients over
// the chunks in order, and job k+1 computes chunk k's input gradient. The
// weight-gradient chain is therefore the same at every worker count, and
// the input-gradient chunks write disjoint samples of dx.
func convBackward[F tensor.Float](c *Conv2D, grad *tensor.Tensor, n int) {
	cs := c.chunkSamples(n)
	tensor.Parallel(1+(n+cs-1)/cs, func(job int) {
		s := convScratchPool.Get().(*convScratch)
		if job == 0 {
			convParamGrads[F](c, s, grad, n, cs)
		} else {
			k := job - 1
			convInputGradChunk[F](c, s, grad, k*cs, min((k+1)*cs, n))
		}
		convScratchPool.Put(s)
	})
}

// chunkGrad returns group g's [outCPerGroup, m] output gradient for samples
// [i0,i1) as s.bv: a view straight into the NCHW gradient for a one-sample
// chunk, otherwise a view of the chunk's channel-major gather into the
// scratch buffer at offset gm0. Callers walk the groups of a chunk from
// g = 0, which performs the gather.
func chunkGrad[F tensor.Float](c *Conv2D, s *convScratch, grad *tensor.Tensor, i0, i1, g, gm0 int) *tensor.Tensor {
	sp := c.outH * c.outW
	m := (i1 - i0) * sp
	ocg := c.outCPerGroup
	if i1-i0 == 1 {
		lo := (i0*c.OutC + g*ocg) * sp
		tensor.ViewInto(&s.bv, grad, lo, lo+ocg*sp, ocg, m)
		return &s.bv
	}
	if g == 0 {
		gm, gd := tensor.Of[F](&s.buf)[gm0:], tensor.Of[F](grad)
		for ch := 0; ch < c.OutC; ch++ {
			tensor.CopyRows(gm[ch*m:], gd[(i0*c.OutC+ch)*sp:], i1-i0, sp, sp, c.OutC*sp)
		}
	}
	tensor.ViewInto(&s.bv, &s.buf, gm0+g*ocg*m, gm0+(g+1)*ocg*m, ocg, m)
	return &s.bv
}

// convParamGrads accumulates dB and dW. Each bias gradient sums its channel
// in (sample, pixel) order. The weight gradient is computed transposed,
// dWᵀ_g = Σ_chunks cols_g · gmatᵀ_g, with each chunk's product continuing
// the previous chunk's accumulators (MatMulABTAcc), so every element is one
// multiply-add chain over the whole batch in ascending order. The ABT
// kernel transpose-packs its short second operand (outCPerGroup rows) and
// reuses each panel across all kernelElems output rows. dW is zero on
// entry (grads are cleared each step), so adding the transpose back is
// bit-identical to accumulating the direct product.
func convParamGrads[F tensor.Float](c *Conv2D, s *convScratch, grad *tensor.Tensor, n, cs int) {
	sp := c.outH * c.outW
	ke, ocg := c.kernelElems, c.outCPerGroup
	gd, db := tensor.Of[F](grad), tensor.Of[F](c.B.Grad)
	for ch := 0; ch < c.OutC; ch++ {
		var sum F
		for i := 0; i < n; i++ {
			for _, v := range gd[(i*c.OutC+ch)*sp : (i*c.OutC+ch+1)*sp] {
				sum += v
			}
		}
		db[ch] += sum
	}
	// Scratch layout: dWᵀ, then the chunk's cols, then its gathered gradient.
	dwtN, colsMax := c.Groups*ke*ocg, c.Groups*ke*cs*sp
	buf := s.reserve(grad.DT, dwtN+colsMax+c.OutC*cs*sp)
	xd, bd := tensor.Of[F](c.x), tensor.Of[F](buf)
	for i0 := 0; i0 < n; i0 += cs {
		i1 := min(i0+cs, n)
		m := (i1 - i0) * sp
		for i := i0; i < i1; i++ {
			im2col(c, xd, bd[dwtN:], i, i-i0, m)
		}
		for g := 0; g < c.Groups; g++ {
			gm := chunkGrad[F](c, s, grad, i0, i1, g, dwtN+colsMax)
			tensor.ViewInto(&s.av, buf, dwtN+g*ke*m, dwtN+(g+1)*ke*m, ke, m)
			tensor.ViewInto(&s.ov, buf, g*ke*ocg, (g+1)*ke*ocg, ke, ocg)
			if i0 == 0 {
				tensor.MatMulABTInto(&s.ov, &s.av, gm)
			} else {
				tensor.MatMulABTAcc(&s.ov, &s.av, gm)
			}
		}
	}
	dw := tensor.Of[F](c.W.Grad)
	for g := 0; g < c.Groups; g++ {
		addTransposed(dw[g*ocg*ke:(g+1)*ocg*ke], bd[g*ke*ocg:(g+1)*ke*ocg], ocg, ke)
	}
}

// convInputGradChunk computes dX for samples [i0,i1): per group
// dcols_g = W_gᵀ · gmat_g into the scratch, then col2im per sample.
func convInputGradChunk[F tensor.Float](c *Conv2D, s *convScratch, grad *tensor.Tensor, i0, i1 int) {
	m := (i1 - i0) * c.outH * c.outW
	ke, ocg := c.kernelElems, c.outCPerGroup
	dcolsN := c.Groups * ke * m
	buf := s.reserve(grad.DT, dcolsN+c.OutC*m) // dcols, then the gathered gradient
	for g := 0; g < c.Groups; g++ {
		gm := chunkGrad[F](c, s, grad, i0, i1, g, dcolsN)
		tensor.ViewInto(&s.wv, c.W.Value, g*ocg*ke, (g+1)*ocg*ke, ocg, ke)
		tensor.ViewInto(&s.av, buf, g*ke*m, (g+1)*ke*m, ke, m)
		tensor.MatMulATBInto(&s.av, &s.wv, gm)
	}
	dcolsd, dxd := tensor.Of[F](buf), tensor.Of[F](c.dx)
	for i := i0; i < i1; i++ {
		col2im(c, dcolsd, dxd, i, i-i0, m)
	}
}

// addTransposed accumulates dst += srcᵀ where dst is m×n and src is n×m,
// both row-major. Reads src sequentially; the strided writes touch only the
// small dst (a per-group weight-gradient block).
func addTransposed[F tensor.Float](dst, src []F, m, n int) {
	for j := 0; j < n; j++ {
		col := src[j*m : (j+1)*m]
		for i, v := range col {
			dst[i*n+j] += v
		}
	}
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// im2col unrolls sample i of x into column block j of a chunk's im2col
// matrix with ld columns: cols[row, j·spatial + p] holds the receptive-field
// element `row` of output pixel p. Every position is written, so the
// scratch needs no zeroing between chunks. For stride 1 (every convolution
// in the model zoo) each output row is zero-pad, one contiguous copy,
// zero-pad — a memmove instead of a bounds check per pixel, which matters
// twice over on the float32 path where the same move touches half the bytes.
func im2col[F tensor.Float](c *Conv2D, xd, colsd []F, i, j, ld int) {
	spatial := c.outH * c.outW
	chanSize := c.inH * c.inW
	base := i * c.InC * chanSize
	for ch := 0; ch < c.InC; ch++ {
		g := ch / c.inCPerGroup
		chInG := ch % c.inCPerGroup
		src := xd[base+ch*chanSize : base+(ch+1)*chanSize]
		for kh := 0; kh < c.KH; kh++ {
			ihOff := kh - c.Pad
			for kw := 0; kw < c.KW; kw++ {
				rowIdx := g*c.kernelElems + (chInG*c.KH+kh)*c.KW + kw
				dst := colsd[rowIdx*ld+j*spatial : rowIdx*ld+(j+1)*spatial]
				if c.Stride == 1 {
					off := kw - c.Pad
					if ihOff == 0 && off == 0 && c.outW == c.inW && c.outH == c.inH {
						// The center (or 1×1) tap of a same-size convolution
						// reads the whole channel verbatim: one memmove.
						copy(dst, src)
						continue
					}
					lo, hi, _ := rowSpan(c.outW, c.inW, off)
					ohLo, ohHi := rowBand(c.outH, c.inH, ihOff)
					if c.outW == c.inW && c.outH == c.inH {
						// Same-size tap: dst[oh·W+ow] = src[(oh+dy)·W+ow+dx]
						// is one plane-wide shift, so the whole valid region
						// copies as a single memmove. The elements that wrap
						// across row boundaries land exactly on the zero-pad
						// columns and are overwritten below.
						shift := ihOff*c.inW + off
						dlo := 0
						if shift < 0 {
							dlo = -shift
						}
						dhi := len(dst)
						if limit := len(dst) - shift; dhi > limit {
							dhi = limit
						}
						copy(dst[dlo:dhi], src[dlo+shift:dhi+shift])
						zeroSpan(dst[:ohLo*c.outW])
						zeroSpan(dst[ohHi*c.outW:])
						zeroCols(dst[ohLo*c.outW:ohHi*c.outW], c.outW, lo, hi)
						continue
					}
					// Valid output rows form one contiguous band; everything
					// in the band copies as one strided-rows kernel call and
					// the zero padding splits into the boundary rows (one
					// contiguous memclr each) plus the row edges.
					zeroSpan(dst[:ohLo*c.outW])
					zeroSpan(dst[ohHi*c.outW:])
					for oh := ohLo; oh < ohHi; oh++ {
						zeroSpan(dst[oh*c.outW : oh*c.outW+lo])
						zeroSpan(dst[oh*c.outW+hi : (oh+1)*c.outW])
					}
					if ohHi > ohLo && hi > lo {
						tensor.CopyRows(dst[ohLo*c.outW+lo:], src[(ohLo+ihOff)*c.inW+off+lo:],
							ohHi-ohLo, hi-lo, c.outW, c.inW)
					}
					continue
				}
				p := 0
				for oh := 0; oh < c.outH; oh++ {
					ih := oh*c.Stride - c.Pad + kh
					if ih < 0 || ih >= c.inH {
						row := dst[p : p+c.outW]
						for j := range row {
							row[j] = 0
						}
						p += c.outW
						continue
					}
					rowBase := ih * c.inW
					for ow := 0; ow < c.outW; ow++ {
						iw := ow*c.Stride - c.Pad + kw
						if iw >= 0 && iw < c.inW {
							dst[p] = src[rowBase+iw]
						} else {
							dst[p] = 0
						}
						p++
					}
				}
			}
		}
	}
}

// rowSpan returns the [lo,hi) range of output columns whose input column
// iw = ow + off lies in [0, inW), for a stride-1 row.
func rowSpan(outW, inW, off int) (lo, hi, offOut int) {
	lo = 0
	if off < 0 {
		lo = -off
	}
	hi = outW
	if limit := inW - off; hi > limit {
		hi = limit
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi, off
}

// rowBand returns the [ohLo,ohHi) range of output rows whose input row
// ih = oh + ihOff lies in [0, inH), clamped to [0, outH).
func rowBand(outH, inH, ihOff int) (ohLo, ohHi int) {
	ohLo = 0
	if ihOff < 0 {
		ohLo = -ihOff
	}
	if ohLo > outH {
		ohLo = outH
	}
	ohHi = outH
	if limit := inH - ihOff; ohHi > limit {
		ohHi = limit
	}
	if ohHi < ohLo {
		ohHi = ohLo
	}
	return ohLo, ohHi
}

// zeroSpan clears a slice (compiled to a memclr).
func zeroSpan[F tensor.Float](s []F) {
	for i := range s {
		s[i] = 0
	}
}

// zeroCols clears columns [0,lo) and [hi,w) of every w-wide row of plane.
// The one-column edges of a 3×3/pad-1 tap compile to a single strided store
// per row instead of a subslice per row.
func zeroCols[F tensor.Float](plane []F, w, lo, hi int) {
	if lo == 1 {
		for q := 0; q < len(plane); q += w {
			plane[q] = 0
		}
	} else if lo > 1 {
		for base := 0; base < len(plane); base += w {
			for q := base; q < base+lo; q++ {
				plane[q] = 0
			}
		}
	}
	if hi == w-1 {
		for q := w - 1; q < len(plane); q += w {
			plane[q] = 0
		}
	} else if hi < w-1 {
		for base := 0; base < len(plane); base += w {
			for q := base + hi; q < base+w; q++ {
				plane[q] = 0
			}
		}
	}
}

// col2im scatters column block j of a chunk's ld-column gradient matrix
// back into sample i of dx, accumulating where receptive fields overlap.
// Stride-1 rows accumulate over one contiguous span with no per-pixel
// bounds checks. In the same-size geometry the first tap initializes each
// channel plane (copy plus edge clears), so callers skip zeroing dx
// beforehand; every other geometry accumulates into a caller-zeroed dx (see
// convInitsDX).
func col2im[F tensor.Float](c *Conv2D, dcolsd, dxd []F, i, j, ld int) {
	spatial := c.outH * c.outW
	chanSize := c.inH * c.inW
	base := i * c.InC * chanSize
	fast := c.convInitsDX()
	for ch := 0; ch < c.InC; ch++ {
		g := ch / c.inCPerGroup
		chInG := ch % c.inCPerGroup
		dst := dxd[base+ch*chanSize : base+(ch+1)*chanSize]
		init := fast
		for kh := 0; kh < c.KH; kh++ {
			ihOff := kh - c.Pad
			for kw := 0; kw < c.KW; kw++ {
				rowIdx := g*c.kernelElems + (chInG*c.KH+kh)*c.KW + kw
				src := dcolsd[rowIdx*ld+j*spatial : rowIdx*ld+(j+1)*spatial]
				if c.Stride == 1 {
					off := kw - c.Pad
					if ihOff == 0 && off == 0 && c.outW == c.inW && c.outH == c.inH {
						// Center/1×1 tap: one whole-channel accumulate.
						if init {
							copy(dst, src)
							init = false
						} else {
							tensor.VecAccumulate(dst, src)
						}
						continue
					}
					lo, hi, _ := rowSpan(c.outW, c.inW, off)
					ohLo, ohHi := rowBand(c.outH, c.inH, ihOff)
					if c.outW == c.inW && c.outH == c.inH {
						// Same-size tap: the scatter dst[q+shift] += src[q]
						// is one plane-wide accumulate. src is the dcols
						// scratch (rebuilt by the next backward), so the pad
						// columns can be zeroed in place first; the positions
						// that would wrap across row boundaries read exactly
						// those zeroed elements and the out-of-band rows clip
						// against the plane bounds.
						shift := ihOff*c.inW + off
						zeroCols(src, c.outW, lo, hi)
						qlo := 0
						if shift < 0 {
							qlo = -shift
						}
						qhi := len(src)
						if limit := len(src) - shift; qhi > limit {
							qhi = limit
						}
						if init {
							// First tap of the channel plane: write instead
							// of accumulate and clear the clipped margins, so
							// dx needs no up-front zeroing.
							zeroSpan(dst[:qlo+shift])
							copy(dst[qlo+shift:qhi+shift], src[qlo:qhi])
							zeroSpan(dst[qhi+shift:])
							init = false
						} else {
							tensor.VecAccumulate(dst[qlo+shift:qhi+shift], src[qlo:qhi])
						}
						continue
					}
					if ohHi > ohLo && hi > lo {
						tensor.AccumulateRows(dst[(ohLo+ihOff)*c.inW+off+lo:], src[ohLo*c.outW+lo:],
							ohHi-ohLo, hi-lo, c.inW, c.outW)
					}
					continue
				}
				p := 0
				for oh := 0; oh < c.outH; oh++ {
					ih := oh*c.Stride - c.Pad + kh
					if ih < 0 || ih >= c.inH {
						p += c.outW
						continue
					}
					rowBase := ih * c.inW
					for ow := 0; ow < c.outW; ow++ {
						iw := ow*c.Stride - c.Pad + kw
						if iw >= 0 && iw < c.inW {
							dst[rowBase+iw] += src[p]
						}
						p++
					}
				}
			}
		}
	}
}

// parallelFor runs f(i) for i in [0,n) on the persistent tensor worker pool,
// partitioning indices contiguously.
func parallelFor(n int, f func(i int)) {
	tensor.ParallelSharded(n, tensor.Workers(), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}
