//go:build amd64

package tensor

import "unsafe"

// Implemented in gemm_avx512_amd64.s.

//go:noescape
func avx512Micro8x8(c *float64, ldc int, a *float64, aRow, aStep int, bp *float64, bStep, pk int, load int)

//go:noescape
func avx512Micro8x16f32(c *float32, ldc int, a *float32, aRow, aStep int, bp *float32, bStep, pk int, load int)

//go:noescape
func avx512Micro4x16f32(c *float32, ldc int, a *float32, aRow, aStep int, bp *float32, bStep, pk int, load int)

//go:noescape
func maxPool2x2f32(x, out *float32, am *int64, outH, outW, w int, base int64)

//go:noescape
func maxPool2x2f64(x, out *float64, am *int64, outH, outW, w int, base int64)

// useAVX512 reports whether the AVX-512 micro-kernels may be used: on top of
// the AVX2+FMA requirements, the CPU must expose AVX512F/DQ/BW/VL and the OS
// must have enabled opmask and ZMM state saving (XCR0 bits 5-7 alongside
// XMM/YMM). Both element widths share the requirements, so one probe gates
// the f64 8×8 and the f32 8×16/4×16 kernels alike.
var useAVX512 = detectAVX512()

// useAVX51232 gates the float32 AVX-512 kernels; declared separately so the
// differential harness can reason about each dispatch path and non-amd64
// builds can pin both false.
var useAVX51232 = useAVX512

func detectAVX512() bool {
	if !detectFMA() {
		return false
	}
	if eax, _ := xgetbv(); eax&0xe6 != 0xe6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	const avx512dq = 1 << 17
	const avx512bw = 1 << 30
	const avx512vl = 1 << 31
	const want = uint32(avx512f | avx512dq | avx512bw | avx512vl)
	return b7&want == want
}

// CPUFeatures names the SIMD tiers the GEMM/vector kernels will actually
// use on this host, in ascending order. Benchmark records embed it so
// cross-host comparisons can refuse to gate when the kernel tiers differ
// (a portable-vs-AVX2 delta is a host property, not a regression).
func CPUFeatures() []string {
	var f []string
	if useFMA {
		f = append(f, "avx2", "fma")
	}
	if useAVX512 {
		f = append(f, "avx512")
	}
	return f
}

// avx512RowTail handles the leftover rows of a 16-wide tile sweep in Go,
// streaming B row t from bp[t·bStride:][:16] (the packed panel or B in
// place) with plain mul+add per element — the same per-element chain as
// fmaRowTail, so tail rows stay bit-identical between the AVX2 and AVX-512
// tiers regardless of panel width.
func avx512RowTail(c []float32, jw int, a []float32, aStep, pk int, bp []float32, bStride int, load bool) {
	var acc [avx512NR]float32
	if load {
		copy(acc[:jw], c[:jw])
	}
	for t := 0; t < pk; t++ {
		av := a[t*aStep]
		bq := bp[bStride*t : bStride*t+avx512NR : bStride*t+avx512NR]
		for j := 0; j < avx512NR; j++ {
			acc[j] += av * bq[j]
		}
	}
	copy(c[:jw], acc[:jw])
}

// avx512PartialTile64 runs the f64 8×8 micro-kernel for a j-tile narrower
// than fmaNR by staging the 8×jw C block in a dense 8×8 scratch.
func avx512PartialTile64(out []float64, base, n, jw int, aPtr *float64, aRowB, aStepB int, bp *float64, pk int, load bool) {
	var cbuf [8 * fmaNR]float64
	if load {
		for r := 0; r < 8; r++ {
			copy(cbuf[r*fmaNR:r*fmaNR+jw], out[base+r*n:base+r*n+jw])
		}
	}
	avx512Micro8x8(&cbuf[0], fmaNR*8, aPtr, aRowB, aStepB, bp, fmaNR*8, pk, b2i(load))
	for r := 0; r < 8; r++ {
		copy(out[base+r*n:base+r*n+jw], cbuf[r*fmaNR:r*fmaNR+jw])
	}
}

// avx512PartialTile32 stages an 8×jw float32 C block through the 8×16
// micro-kernel for j-tiles narrower than avx512NR.
func avx512PartialTile32(out []float32, base, n, jw int, aPtr *float32, aRowB, aStepB int, bp *float32, pk int, load bool) {
	var cbuf [8 * avx512NR]float32
	if load {
		for r := 0; r < 8; r++ {
			copy(cbuf[r*avx512NR:r*avx512NR+jw], out[base+r*n:base+r*n+jw])
		}
	}
	avx512Micro8x16f32(&cbuf[0], avx512NR*4, aPtr, aRowB, aStepB, bp, avx512NR*4, pk, b2i(load))
	for r := 0; r < 8; r++ {
		copy(out[base+r*n:base+r*n+jw], cbuf[r*avx512NR:r*avx512NR+jw])
	}
}

// avx512PartialTile4x32 is the 4-row counterpart of avx512PartialTile32.
func avx512PartialTile4x32(out []float32, base, n, jw int, aPtr *float32, aRowB, aStepB int, bp *float32, pk int, load bool) {
	var cbuf [4 * avx512NR]float32
	if load {
		for r := 0; r < 4; r++ {
			copy(cbuf[r*avx512NR:r*avx512NR+jw], out[base+r*n:base+r*n+jw])
		}
	}
	avx512Micro4x16f32(&cbuf[0], avx512NR*4, aPtr, aRowB, aStepB, bp, avx512NR*4, pk, b2i(load))
	for r := 0; r < 4; r++ {
		copy(out[base+r*n:base+r*n+jw], cbuf[r*avx512NR:r*avx512NR+jw])
	}
}

// packPanel16Rows packs src[(r0+t)·ld + j0 : … + j0+jw] for t in [0,pk) into
// a 16-wide zero-padded panel, the avx512NR counterpart of packPanelRows.
func packPanel16Rows(panel, src []float32, r0, ld, j0, jw, pk int) {
	if jw == avx512NR {
		CopyRows(panel, src[r0*ld+j0:], pk, avx512NR, avx512NR, ld)
		return
	}
	for t := 0; t < pk; t++ {
		row := src[(r0+t)*ld+j0 : (r0+t)*ld+j0+jw]
		q := panel[avx512NR*t : avx512NR*t+avx512NR]
		for j := 0; j < avx512NR; j++ {
			if j < jw {
				q[j] = row[j]
			} else {
				q[j] = 0
			}
		}
	}
}

// packPanel16Cols transpose-packs src rows j0..j0+jw into a 16-wide panel:
// panel[t·16+j] = src[(j0+j)·ld + p0+t]. Scalar: the 8×8 shuffle transpose
// has a fixed 8-wide destination stride, so the 16-wide panel fills by
// column walks instead. Pack cost is amortized over the row sweep exactly
// like the other panels.
func packPanel16Cols(panel, src []float32, j0, ld, p0, jw, pk int) {
	// Panel-row-major fill: writes stream sequentially through the panel
	// and the reads touch one hot cache line per source row (the next t
	// rereads the same lines one element over). The transposed order —
	// column walks with stride-16 writes — touches pk distinct lines per
	// column and was the top cost of f32 conv backward.
	var rows [avx512NR][]float32
	for j := 0; j < jw; j++ {
		rows[j] = src[(j0+j)*ld+p0 : (j0+j)*ld+p0+pk]
	}
	for t := 0; t < pk; t++ {
		q := panel[avx512NR*t : avx512NR*t+avx512NR]
		for j := 0; j < jw; j++ {
			q[j] = rows[j][t]
		}
		for j := jw; j < avx512NR; j++ {
			q[j] = 0
		}
	}
}

// gemmNNRangeAVX512 computes rows [lo,hi) of out = a·b with the f64 AVX-512
// kernel: 8-row ZMM tiles on the same 8-wide panel as the AVX2 tier, with
// the AVX2 4×8 kernel serving 4..7-row leftovers (both fuse identically, so
// the tier switch never changes bits).
func gemmNNRangeAVX512(out, a, b []float64, k, n, lo, hi int, acc bool) {
	pp := getPanel[float64]()
	panel := (*pp)[:gemmKC*fmaNR]
	direct := inPlaceB(hi-lo, 8)
	for pc := 0; pc < k; pc += gemmKC {
		pk := k - pc
		if pk > gemmKC {
			pk = gemmKC
		}
		load := acc || pc > 0
		for j0 := 0; j0 < n; j0 += fmaNR {
			jw := n - j0
			if jw > fmaNR {
				jw = fmaNR
			}
			bsrc, bs := panel, fmaNR
			if direct && jw == fmaNR {
				bsrc, bs = b[pc*n+j0:], n
			} else {
				packPanelRows(panel, b, pc, n, j0, jw, pk)
			}
			bp := &bsrc[0]
			i := lo
			for ; i+8 <= hi; i += 8 {
				if jw == fmaNR {
					avx512Micro8x8(&out[i*n+j0], n*8, &a[i*k+pc], k*8, 8, bp, bs*8, pk, b2i(load))
				} else {
					avx512PartialTile64(out, i*n+j0, n, jw, &a[i*k+pc], k*8, 8, bp, pk, load)
				}
			}
			for ; i+4 <= hi; i += 4 {
				if jw == fmaNR {
					fmaMicro4x8(&out[i*n+j0], n*8, &a[i*k+pc], k*8, 8, bp, bs*8, pk, b2i(load))
				} else {
					fmaPartialTile(out, i*n+j0, n, jw, &a[i*k+pc], k*8, 8, bp, pk, load)
				}
			}
			for ; i < hi; i++ {
				fmaRowTail(out[i*n+j0:i*n+j0+jw], jw, a[i*k+pc:], 1, pk, bsrc, bs, load)
			}
		}
	}
	putPanel(pp)
}

// gemmNNRangeAVX51232 computes rows [lo,hi) of out = a·b with the f32
// AVX-512 kernel: 8×16 register tiles over a 16-wide packed panel.
func gemmNNRangeAVX51232(out, a, b []float32, k, n, lo, hi int, acc bool) {
	pp := getPanel[float32]()
	panel := (*pp)[:gemmKC*avx512NR]
	direct := inPlaceB(hi-lo, 8)
	for pc := 0; pc < k; pc += gemmKC {
		pk := k - pc
		if pk > gemmKC {
			pk = gemmKC
		}
		load := acc || pc > 0
		for j0 := 0; j0 < n; j0 += avx512NR {
			jw := n - j0
			if jw > avx512NR {
				jw = avx512NR
			}
			bsrc, bs := panel, avx512NR
			if direct && jw == avx512NR {
				bsrc, bs = b[pc*n+j0:], n
			} else {
				packPanel16Rows(panel, b, pc, n, j0, jw, pk)
			}
			bp := &bsrc[0]
			i := lo
			for ; i+8 <= hi; i += 8 {
				if jw == avx512NR {
					avx512Micro8x16f32(&out[i*n+j0], n*4, &a[i*k+pc], k*4, 4, bp, bs*4, pk, b2i(load))
				} else {
					avx512PartialTile32(out, i*n+j0, n, jw, &a[i*k+pc], k*4, 4, bp, pk, load)
				}
			}
			for ; i+4 <= hi; i += 4 {
				if jw == avx512NR {
					avx512Micro4x16f32(&out[i*n+j0], n*4, &a[i*k+pc], k*4, 4, bp, bs*4, pk, b2i(load))
				} else {
					avx512PartialTile4x32(out, i*n+j0, n, jw, &a[i*k+pc], k*4, 4, bp, pk, load)
				}
			}
			for ; i < hi; i++ {
				avx512RowTail(out[i*n+j0:i*n+j0+jw], jw, a[i*k+pc:], 1, pk, bsrc, bs, load)
			}
		}
	}
	putPanel(pp)
}

// gemmATRangeAVX512 computes output rows [plo,phi) of out = aᵀ·b with the
// f64 AVX-512 kernel.
func gemmATRangeAVX512(out, a, b []float64, m, k, n, plo, phi int, acc bool) {
	pp := getPanel[float64]()
	panel := (*pp)[:gemmKC*fmaNR]
	for ic := 0; ic < m; ic += gemmKC {
		mk := m - ic
		if mk > gemmKC {
			mk = gemmKC
		}
		load := acc || ic > 0
		for j0 := 0; j0 < n; j0 += fmaNR {
			jw := n - j0
			if jw > fmaNR {
				jw = fmaNR
			}
			packPanelRows(panel, b, ic, n, j0, jw, mk)
			bp := &panel[0]
			p := plo
			for ; p+8 <= phi; p += 8 {
				if jw == fmaNR {
					avx512Micro8x8(&out[p*n+j0], n*8, &a[ic*k+p], 8, k*8, bp, fmaNR*8, mk, b2i(load))
				} else {
					avx512PartialTile64(out, p*n+j0, n, jw, &a[ic*k+p], 8, k*8, bp, mk, load)
				}
			}
			for ; p+4 <= phi; p += 4 {
				if jw == fmaNR {
					fmaMicro4x8(&out[p*n+j0], n*8, &a[ic*k+p], 8, k*8, bp, fmaNR*8, mk, b2i(load))
				} else {
					fmaPartialTile(out, p*n+j0, n, jw, &a[ic*k+p], 8, k*8, bp, mk, load)
				}
			}
			for ; p < phi; p++ {
				fmaRowTail(out[p*n+j0:p*n+j0+jw], jw, a[ic*k+p:], k, mk, panel, fmaNR, load)
			}
		}
	}
	putPanel(pp)
}

// gemmATRangeAVX51232 computes output rows [plo,phi) of out = aᵀ·b with the
// f32 AVX-512 kernel.
func gemmATRangeAVX51232(out, a, b []float32, m, k, n, plo, phi int, acc bool) {
	pp := getPanel[float32]()
	panel := (*pp)[:gemmKC*avx512NR]
	for ic := 0; ic < m; ic += gemmKC {
		mk := m - ic
		if mk > gemmKC {
			mk = gemmKC
		}
		load := acc || ic > 0
		for j0 := 0; j0 < n; j0 += avx512NR {
			jw := n - j0
			if jw > avx512NR {
				jw = avx512NR
			}
			packPanel16Rows(panel, b, ic, n, j0, jw, mk)
			bp := &panel[0]
			p := plo
			for ; p+8 <= phi; p += 8 {
				if jw == avx512NR {
					avx512Micro8x16f32(&out[p*n+j0], n*4, &a[ic*k+p], 4, k*4, bp, avx512NR*4, mk, b2i(load))
				} else {
					avx512PartialTile32(out, p*n+j0, n, jw, &a[ic*k+p], 4, k*4, bp, mk, load)
				}
			}
			for ; p+4 <= phi; p += 4 {
				if jw == avx512NR {
					avx512Micro4x16f32(&out[p*n+j0], n*4, &a[ic*k+p], 4, k*4, bp, avx512NR*4, mk, b2i(load))
				} else {
					avx512PartialTile4x32(out, p*n+j0, n, jw, &a[ic*k+p], 4, k*4, bp, mk, load)
				}
			}
			for ; p < phi; p++ {
				avx512RowTail(out[p*n+j0:p*n+j0+jw], jw, a[ic*k+p:], k, mk, panel, avx512NR, load)
			}
		}
	}
	putPanel(pp)
}

// gemmABTRangeAVX512 computes rows [ilo,ihi) of out = a·bᵀ with the f64
// AVX-512 kernel, transpose-packing b panels.
func gemmABTRangeAVX512(out, a, b []float64, k, n, ilo, ihi int, acc bool) {
	pp := getPanel[float64]()
	panel := (*pp)[:gemmKC*fmaNR]
	for pc := 0; pc < k; pc += gemmKC {
		pk := k - pc
		if pk > gemmKC {
			pk = gemmKC
		}
		load := acc || pc > 0
		for j0 := 0; j0 < n; j0 += fmaNR {
			jw := n - j0
			if jw > fmaNR {
				jw = fmaNR
			}
			packPanelCols(panel, b, j0, k, pc, jw, pk)
			bp := &panel[0]
			i := ilo
			for ; i+8 <= ihi; i += 8 {
				if jw == fmaNR {
					avx512Micro8x8(&out[i*n+j0], n*8, &a[i*k+pc], k*8, 8, bp, fmaNR*8, pk, b2i(load))
				} else {
					avx512PartialTile64(out, i*n+j0, n, jw, &a[i*k+pc], k*8, 8, bp, pk, load)
				}
			}
			for ; i+4 <= ihi; i += 4 {
				if jw == fmaNR {
					fmaMicro4x8(&out[i*n+j0], n*8, &a[i*k+pc], k*8, 8, bp, fmaNR*8, pk, b2i(load))
				} else {
					fmaPartialTile(out, i*n+j0, n, jw, &a[i*k+pc], k*8, 8, bp, pk, load)
				}
			}
			for ; i < ihi; i++ {
				fmaRowTail(out[i*n+j0:i*n+j0+jw], jw, a[i*k+pc:], 1, pk, panel, fmaNR, load)
			}
		}
	}
	putPanel(pp)
}

// gemmABTRangeAVX51232 computes rows [ilo,ihi) of out = a·bᵀ with the f32
// AVX-512 kernel, transpose-packing b into 16-wide panels.
func gemmABTRangeAVX51232(out, a, b []float32, k, n, ilo, ihi int, acc bool) {
	pp := getPanel[float32]()
	panel := (*pp)[:gemmKC*avx512NR]
	for pc := 0; pc < k; pc += gemmKC {
		pk := k - pc
		if pk > gemmKC {
			pk = gemmKC
		}
		load := acc || pc > 0
		for j0 := 0; j0 < n; j0 += avx512NR {
			jw := n - j0
			if jw > avx512NR {
				jw = avx512NR
			}
			packPanel16Cols(panel, b, j0, k, pc, jw, pk)
			bp := &panel[0]
			i := ilo
			for ; i+8 <= ihi; i += 8 {
				if jw == avx512NR {
					avx512Micro8x16f32(&out[i*n+j0], n*4, &a[i*k+pc], k*4, 4, bp, avx512NR*4, pk, b2i(load))
				} else {
					avx512PartialTile32(out, i*n+j0, n, jw, &a[i*k+pc], k*4, 4, bp, pk, load)
				}
			}
			for ; i+4 <= ihi; i += 4 {
				if jw == avx512NR {
					avx512Micro4x16f32(&out[i*n+j0], n*4, &a[i*k+pc], k*4, 4, bp, avx512NR*4, pk, b2i(load))
				} else {
					avx512PartialTile4x32(out, i*n+j0, n, jw, &a[i*k+pc], k*4, 4, bp, pk, load)
				}
			}
			for ; i < ihi; i++ {
				avx512RowTail(out[i*n+j0:i*n+j0+jw], jw, a[i*k+pc:], 1, pk, panel, avx512NR, load)
			}
		}
	}
	putPanel(pp)
}

// MaxPool2x2F32 runs the AVX-512 2x2 stride-2 max-pool kernel over one input
// plane of width w, writing outH*outW maxima into out and absolute input
// indices (base + row-relative offset) into am. The compare/blend chain in
// the kernel visits candidates in the exact order of the scalar loop
// (row0-even, row0-odd, row1-even, row1-odd, strict greater-than), so values
// and argmax tie-breaking are bit-identical to the portable path. Returns
// false when the AVX-512 f32 tier is unavailable so callers fall back to the
// scalar loop.
func MaxPool2x2F32(x, out []float32, am []int, outH, outW, w, base int) bool {
	if !useAVX51232 || outH == 0 || outW == 0 {
		return false
	}
	maxPool2x2f32(&x[0], &out[0], (*int64)(unsafe.Pointer(&am[0])), outH, outW, w, int64(base))
	return true
}

// MaxPool2x2F64 is the f64 twin of MaxPool2x2F32, gated on the AVX-512 f64
// tier.
func MaxPool2x2F64(x, out []float64, am []int, outH, outW, w, base int) bool {
	if !useAVX512 || outH == 0 || outW == 0 {
		return false
	}
	maxPool2x2f64(&x[0], &out[0], (*int64)(unsafe.Pointer(&am[0])), outH, outW, w, int64(base))
	return true
}
