package tensor

import (
	"sync"
	"unsafe"
)

// parallelThreshold is the number of scalar multiply-adds below which the
// GEMM drivers run single-threaded; tiny products are faster without any
// dispatch overhead.
const parallelThreshold = 64 * 1024

// Cache-blocking parameters of the A·B kernel. B is packed into panels of
// gemmKC×gemmNR elements (L1-resident) that a register tile of gemmMR rows
// streams through. gemmMR×gemmNR accumulators plus the panel and A operands
// stay within the amd64 register budget.
const (
	gemmKC = 256
	gemmMR = 2
	gemmNR = 4
)

// fmaNR is the packed-panel width of the AVX2+FMA micro-kernels: 8 lanes,
// which is two 4-lane vectors of float64 (the 4×8 kernel) or one 8-lane
// vector of float32 (the 8×8 kernel); see gemm_amd64.go. It is declared
// here so the shared panel scratch can size for either kernel on every
// platform.
const fmaNR = 8

// avx512NR is the packed-panel width of the AVX-512 float32 micro-kernels:
// 16 lanes, one 512-bit ZMM vector per panel row (see gemm_avx512_amd64.go).
// The f64 AVX-512 kernel keeps the 8-wide panel (8 float64 = one ZMM), so
// only the float32 scratch sizes for this width.
const avx512NR = 16

// avx51232For reports whether the float32 AVX-512 kernels should carry a
// product whose packed-panel dimension is n. Below one full 16-lane panel
// the wider tile buys nothing and its packing/tail overhead costs ~30% on
// the small dense products of a training step, so narrow products stay on
// the 8-wide AVX2 tier. Purely a speed choice: every tier produces
// bit-identical results (the differential harness enforces it), so the
// crossover can move without touching any golden. The f64 kernels keep the
// FMA tier's 8-wide panel and have no such penalty.
func avx51232For(n int) bool { return useAVX51232 && n >= avx512NR }

// panelScratch64/panelScratch32 recycle the packed-B panels across GEMM
// calls so the blocked kernels allocate nothing in steady state. Panels are
// sized for the widest kernel of their dtype; narrower kernels reslice.
var panelScratch64 = sync.Pool{
	New: func() any {
		s := make([]float64, gemmKC*fmaNR)
		return &s
	},
}

var panelScratch32 = sync.Pool{
	New: func() any {
		s := make([]float32, gemmKC*avx512NR)
		return &s
	},
}

// getPanel fetches the panel scratch for the instantiated element type. The
// sync.Pool interface already holds a pointer, so the round trip performs no
// boxing allocation.
func getPanel[F Float]() *[]F {
	var z F
	if unsafe.Sizeof(z) == 4 {
		return panelScratch32.Get().(*[]F)
	}
	return panelScratch64.Get().(*[]F)
}

func putPanel[F Float](p *[]F) {
	var z F
	if unsafe.Sizeof(z) == 4 {
		panelScratch32.Put(any(p).(*[]float32))
		return
	}
	panelScratch64.Put(any(p).(*[]float64))
}

// gemmShards picks the shard count for a kernel of the given output rows and
// total multiply-add count.
func gemmShards(rows, work int) int {
	if work < parallelThreshold || poolWorkers < 2 || rows < 2 {
		return 1
	}
	s := poolWorkers
	if limit := work / (parallelThreshold / 2); s > limit {
		s = limit
	}
	if s > rows {
		s = rows
	}
	if s < 1 {
		s = 1
	}
	return s
}

// gemmKernel is one sharded range kernel: rows [lo,hi) of one of the three
// product forms over flat slices.
type gemmKernel[F Float] func(out, a, b []F, k, n, lo, hi int, acc bool)

// shardRanges splits [0,rows) into ranges whose boundaries are multiples of
// the widest micro-kernel tile height (fmaNR covers the 8-row f32, 4-row
// f64/f32 and 2-row portable tiles alike). Tile-aligned boundaries make a
// row's tile membership — and therefore its FMA-vs-tail rounding — a
// function of the row index alone, so GEMM results are bit-identical at
// every worker count and shard layout, not merely at every concurrency cap.
func shardRanges(rows, shards int) (chunk, nShards int) {
	chunk = (rows + shards - 1) / shards
	chunk = (chunk + fmaNR - 1) &^ (fmaNR - 1)
	nShards = (rows + chunk - 1) / chunk
	return chunk, nShards
}

// runSharded executes a range kernel over [0,rows) in tile-aligned shards.
func runSharded[F Float](kernel gemmKernel[F], out, a, b []F, k, n, rows, shards int, acc bool) {
	if shards <= 1 {
		kernel(out, a, b, k, n, 0, rows, acc)
		return
	}
	chunk, nShards := shardRanges(rows, shards)
	if nShards <= 1 {
		kernel(out, a, b, k, n, 0, rows, acc)
		return
	}
	ParallelSharded(nShards, nShards, func(_, slo, shi int) {
		for s := slo; s < shi; s++ {
			lo := s * chunk
			hi := lo + chunk
			if hi > rows {
				hi = rows
			}
			kernel(out, a, b, k, n, lo, hi, acc)
		}
	})
}

// MatMul returns a·b for rank-2 tensors a (m×k) and b (k×n).
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 operands")
	}
	if a.Shape[1] != b.Shape[0] {
		panic("tensor: MatMul inner dimension mismatch")
	}
	out := NewOf(a.DT, a.Shape[0], b.Shape[1])
	gemmNN(out, a, b, false)
	return out
}

// MatMulInto computes out = a·b, reusing out's storage. out must be m×n and
// may not alias a or b.
func MatMulInto(out, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || out.Shape[0] != m || out.Shape[1] != n {
		panic("tensor: MatMulInto shape mismatch")
	}
	gemmNN(out, a, b, false)
}

// gemmNN computes out = a·b (acc=false) or out += a·b (acc=true) with a
// cache-blocked, register-tiled kernel, sharding output rows across the
// worker pool. Every output element accumulates its k terms in ascending
// order regardless of blocking, so results match the naive kernel. The
// operands' common dtype selects the kernel instantiation (and, on amd64,
// the 4×8 f64 or 8×8 f32 FMA micro-kernel).
func gemmNN(out, a, b *Tensor, acc bool) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if n == 0 || m == 0 {
		return
	}
	if k == 0 {
		if !acc {
			out.Zero()
		}
		return
	}
	shards := gemmShards(m, m*k*n)
	if out.DT.Backing() == F32 {
		kernel := gemmNNRange[float32]
		if avx51232For(n) {
			kernel = gemmNNRangeAVX51232
		} else if useFMA32 {
			kernel = gemmNNRangeFMA32
		}
		runSharded(kernel, Of[float32](out), Of[float32](a), Of[float32](b), k, n, m, shards, acc)
		return
	}
	kernel := gemmNNRange[float64]
	if useAVX512 {
		kernel = gemmNNRangeAVX512
	} else if useFMA {
		kernel = gemmNNRangeFMA
	}
	runSharded(kernel, out.Data, Of[float64](a), Of[float64](b), k, n, m, shards, acc)
}

// gemmNNRange computes rows [lo,hi) of out = a·b. For each k-block it packs
// a gemmNR-wide B panel once and streams gemmMR-row register tiles through
// it; the panel is reused by every row tile of the shard.
func gemmNNRange[F Float](out, a, b []F, k, n, lo, hi int, acc bool) {
	pp := getPanel[F]()
	panel := *pp
	for pc := 0; pc < k; pc += gemmKC {
		pk := k - pc
		if pk > gemmKC {
			pk = gemmKC
		}
		load := acc || pc > 0
		for j0 := 0; j0 < n; j0 += gemmNR {
			jw := n - j0
			if jw > gemmNR {
				jw = gemmNR
			}
			bp := panel[:pk*gemmNR]
			if jw == gemmNR {
				for p := 0; p < pk; p++ {
					brow := b[(pc+p)*n+j0 : (pc+p)*n+j0+gemmNR]
					q := p * gemmNR
					bp[q] = brow[0]
					bp[q+1] = brow[1]
					bp[q+2] = brow[2]
					bp[q+3] = brow[3]
				}
			} else {
				for p := 0; p < pk; p++ {
					brow := b[(pc+p)*n+j0 : (pc+p)*n+j0+jw]
					q := p * gemmNR
					for j := 0; j < gemmNR; j++ {
						if j < jw {
							bp[q+j] = brow[j]
						} else {
							bp[q+j] = 0
						}
					}
				}
			}
			i := lo
			for ; i+gemmMR <= hi; i += gemmMR {
				a0 := a[i*k+pc : i*k+pc+pk]
				a1 := a[(i+1)*k+pc:][:pk]
				o0 := out[i*n+j0 : i*n+j0+jw]
				o1 := out[(i+1)*n+j0 : (i+1)*n+j0+jw]
				var c00, c01, c02, c03, c10, c11, c12, c13 F
				if load {
					c00 = o0[0]
					c10 = o1[0]
					if jw > 1 {
						c01, c11 = o0[1], o1[1]
					}
					if jw > 2 {
						c02, c12 = o0[2], o1[2]
					}
					if jw > 3 {
						c03, c13 = o0[3], o1[3]
					}
				}
				for p := 0; p < pk; p++ {
					bq := bp[4*p : 4*p+4 : 4*p+4]
					av0 := a0[p]
					av1 := a1[p]
					b0, b1, b2, b3 := bq[0], bq[1], bq[2], bq[3]
					c00 += av0 * b0
					c01 += av0 * b1
					c02 += av0 * b2
					c03 += av0 * b3
					c10 += av1 * b0
					c11 += av1 * b1
					c12 += av1 * b2
					c13 += av1 * b3
				}
				o0[0] = c00
				o1[0] = c10
				if jw > 1 {
					o0[1], o1[1] = c01, c11
				}
				if jw > 2 {
					o0[2], o1[2] = c02, c12
				}
				if jw > 3 {
					o0[3], o1[3] = c03, c13
				}
			}
			for ; i < hi; i++ {
				a0 := a[i*k+pc : i*k+pc+pk]
				o0 := out[i*n+j0 : i*n+j0+jw]
				var c0, c1, c2, c3 F
				if load {
					c0 = o0[0]
					if jw > 1 {
						c1 = o0[1]
					}
					if jw > 2 {
						c2 = o0[2]
					}
					if jw > 3 {
						c3 = o0[3]
					}
				}
				for p := 0; p < pk; p++ {
					bq := bp[4*p : 4*p+4 : 4*p+4]
					av := a0[p]
					c0 += av * bq[0]
					c1 += av * bq[1]
					c2 += av * bq[2]
					c3 += av * bq[3]
				}
				o0[0] = c0
				if jw > 1 {
					o0[1] = c1
				}
				if jw > 2 {
					o0[2] = c2
				}
				if jw > 3 {
					o0[3] = c3
				}
			}
		}
	}
	putPanel(pp)
}

// MatMulATB returns aᵀ·b without materializing the transpose of a.
// a is m×k, b is m×n; the result is k×n.
func MatMulATB(a, b *Tensor) *Tensor {
	out := NewOf(a.DT, a.Shape[1], b.Shape[1])
	gemmAT(out, a, b, true)
	return out
}

// MatMulATBInto computes out = aᵀ·b, reusing out's storage (k×n).
func MatMulATBInto(out, a, b *Tensor) { gemmAT(out, a, b, false) }

// MatMulATBAcc computes out += aᵀ·b, accumulating into out (k×n). It lets
// backward passes accumulate weight gradients without a scratch product.
func MatMulATBAcc(out, a, b *Tensor) { gemmAT(out, a, b, true) }

func gemmAT(out, a, b *Tensor, acc bool) {
	m, k := a.Shape[0], a.Shape[1]
	if b.Shape[0] != m {
		panic("tensor: MatMulATB leading dimension mismatch")
	}
	n := b.Shape[1]
	if out.Shape[0] != k || out.Shape[1] != n {
		panic("tensor: MatMulATB output shape mismatch")
	}
	if k == 0 || n == 0 {
		return
	}
	shards := gemmShards(k, m*k*n)
	if out.DT.Backing() == F32 {
		kernel := gemmATRange[float32]
		if avx51232For(n) {
			kernel = gemmATRangeAVX51232
		} else if useFMA32 {
			kernel = gemmATRangeFMA32
		}
		runShardedAT(kernel, Of[float32](out), Of[float32](a), Of[float32](b), m, k, n, shards, acc)
		return
	}
	kernel := gemmATRange[float64]
	if useAVX512 {
		kernel = gemmATRangeAVX512
	} else if useFMA {
		kernel = gemmATRangeFMA
	}
	runShardedAT(kernel, out.Data, Of[float64](a), Of[float64](b), m, k, n, shards, acc)
}

// runShardedAT executes an Aᵀ·B range kernel (whose reduction length m rides
// along) over output rows [0,k), in tile-aligned shards like runSharded.
func runShardedAT[F Float](kernel func(out, a, b []F, m, k, n, plo, phi int, acc bool), out, a, b []F, m, k, n, shards int, acc bool) {
	if shards <= 1 {
		kernel(out, a, b, m, k, n, 0, k, acc)
		return
	}
	chunk, nShards := shardRanges(k, shards)
	if nShards <= 1 {
		kernel(out, a, b, m, k, n, 0, k, acc)
		return
	}
	ParallelSharded(nShards, nShards, func(_, slo, shi int) {
		for s := slo; s < shi; s++ {
			lo := s * chunk
			hi := lo + chunk
			if hi > k {
				hi = k
			}
			kernel(out, a, b, m, k, n, lo, hi, acc)
		}
	})
}

// gemmATRange computes output rows [plo,phi) of out = aᵀ·b by streaming b
// row-wise and scattering each a[i,p] as a 4-row axpy block.
func gemmATRange[F Float](out, a, b []F, m, k, n, plo, phi int, acc bool) {
	if !acc {
		seg := out[plo*n : phi*n]
		for i := range seg {
			seg[i] = 0
		}
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		brow := b[i*n : i*n+n]
		p := plo
		for ; p+4 <= phi; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			o0 := out[p*n : p*n+n]
			o1 := out[(p+1)*n : (p+1)*n+n]
			o2 := out[(p+2)*n : (p+2)*n+n]
			o3 := out[(p+3)*n : (p+3)*n+n]
			for j, bv := range brow {
				o0[j] += a0 * bv
				o1[j] += a1 * bv
				o2[j] += a2 * bv
				o3[j] += a3 * bv
			}
		}
		for ; p < phi; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			o := out[p*n : p*n+n]
			for j, bv := range brow {
				o[j] += av * bv
			}
		}
	}
}

// MatMulABT returns a·bᵀ without materializing the transpose of b.
// a is m×k, b is n×k; the result is m×n.
func MatMulABT(a, b *Tensor) *Tensor {
	out := NewOf(a.DT, a.Shape[0], b.Shape[0])
	gemmABT(out, a, b, true)
	return out
}

// MatMulABTInto computes out = a·bᵀ, reusing out's storage (m×n).
func MatMulABTInto(out, a, b *Tensor) { gemmABT(out, a, b, false) }

// MatMulABTAcc computes out += a·bᵀ, accumulating into out (m×n).
func MatMulABTAcc(out, a, b *Tensor) { gemmABT(out, a, b, true) }

func gemmABT(out, a, b *Tensor, acc bool) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	if b.Shape[1] != k {
		panic("tensor: MatMulABT trailing dimension mismatch")
	}
	if out.Shape[0] != m || out.Shape[1] != n {
		panic("tensor: MatMulABT output shape mismatch")
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !acc {
			out.Zero()
		}
		return
	}
	shards := gemmShards(m, m*k*n)
	if out.DT.Backing() == F32 {
		kernel := gemmABTRange[float32]
		if avx51232For(n) {
			kernel = gemmABTRangeAVX51232
		} else if useFMA32 {
			kernel = gemmABTRangeFMA32
		}
		runSharded(kernel, Of[float32](out), Of[float32](a), Of[float32](b), k, n, m, shards, acc)
		return
	}
	kernel := gemmABTRange[float64]
	if useAVX512 {
		kernel = gemmABTRangeAVX512
	} else if useFMA {
		kernel = gemmABTRangeFMA
	}
	runSharded(kernel, out.Data, Of[float64](a), Of[float64](b), k, n, m, shards, acc)
}

// gemmABTRange computes rows [ilo,ihi) of out = a·bᵀ as 2×4 register tiles
// of dot products, reading each pair of a rows and quad of b rows once.
// With acc the accumulators start from out, like the blocked kernels' load
// flag, so splitting the reduction across calls (a chunked lowering
// accumulating dWᵀ chunk by chunk) continues one chain per element.
func gemmABTRange[F Float](out, a, b []F, k, n, ilo, ihi int, acc bool) {
	i := ilo
	for ; i+2 <= ihi; i += 2 {
		a0 := a[i*k : i*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		o0 := out[i*n : i*n+n]
		o1 := out[(i+1)*n : (i+1)*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : j*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var c00, c01, c02, c03, c10, c11, c12, c13 F
			if acc {
				c00, c01, c02, c03 = o0[j], o0[j+1], o0[j+2], o0[j+3]
				c10, c11, c12, c13 = o1[j], o1[j+1], o1[j+2], o1[j+3]
			}
			for p := 0; p < k; p++ {
				av0, av1 := a0[p], a1[p]
				bv := b0[p]
				c00 += av0 * bv
				c10 += av1 * bv
				bv = b1[p]
				c01 += av0 * bv
				c11 += av1 * bv
				bv = b2[p]
				c02 += av0 * bv
				c12 += av1 * bv
				bv = b3[p]
				c03 += av0 * bv
				c13 += av1 * bv
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			var c0, c1 F
			if acc {
				c0, c1 = o0[j], o1[j]
			}
			for p, bv := range brow {
				c0 += a0[p] * bv
				c1 += a1[p] * bv
			}
			o0[j] = c0
			o1[j] = c1
		}
	}
	for ; i < ihi; i++ {
		a0 := a[i*k : i*k+k]
		o0 := out[i*n : i*n+n]
		for j := 0; j < n; j++ {
			brow := b[j*k : j*k+k]
			var c0 F
			if acc {
				c0 = o0[j]
			}
			for p, bv := range brow {
				c0 += a0[p] * bv
			}
			o0[j] = c0
		}
	}
}
