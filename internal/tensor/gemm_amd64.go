//go:build amd64

package tensor

// Implemented in gemm_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func fmaMicro4x8(c *float64, ldc int, a *float64, aRow, aStep int, bp *float64, bStep, pk int, load int)

//go:noescape
func fmaMicro8x8f32(c *float32, ldc int, a *float32, aRow, aStep int, bp *float32, bStep, pk int, load int)

// useFMA reports whether the AVX2+FMA micro-kernels may be used: the CPU
// must expose AVX, AVX2, FMA3 and OSXSAVE, and the OS must have enabled
// XMM/YMM state saving. Both element widths share the same requirements, so
// one probe gates the f64 4×8 and the f32 8×8 kernel alike.
var useFMA = detectFMA()

// useFMA32 gates the float32 micro-kernel; declared separately so tests can
// reason about each dispatch path and non-amd64 builds can pin both false.
var useFMA32 = useFMA

func detectFMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fmaRowTail handles the leftover rows of a tile sweep in Go, streaming the
// same 8 B columns as the tile kernels: B row t is bp[t·bStride:][:8] (the
// packed panel, bStride = fmaNR, or B itself read in place). c is the
// jw-element output row; a[t·aStep] walks the reduction dimension. Generic:
// the float64 instantiation is the historical kernel bit for bit; float32
// serves the 8×8 kernel's tails.
func fmaRowTail[F Float](c []F, jw int, a []F, aStep, pk int, bp []F, bStride int, load bool) {
	var c0, c1, c2, c3, c4, c5, c6, c7 F
	if load {
		c0 = c[0]
		if jw > 1 {
			c1 = c[1]
		}
		if jw > 2 {
			c2 = c[2]
		}
		if jw > 3 {
			c3 = c[3]
		}
		if jw > 4 {
			c4 = c[4]
		}
		if jw > 5 {
			c5 = c[5]
		}
		if jw > 6 {
			c6 = c[6]
		}
		if jw > 7 {
			c7 = c[7]
		}
	}
	for t := 0; t < pk; t++ {
		av := a[t*aStep]
		bq := bp[bStride*t : bStride*t+fmaNR : bStride*t+fmaNR]
		c0 += av * bq[0]
		c1 += av * bq[1]
		c2 += av * bq[2]
		c3 += av * bq[3]
		c4 += av * bq[4]
		c5 += av * bq[5]
		c6 += av * bq[6]
		c7 += av * bq[7]
	}
	c[0] = c0
	if jw > 1 {
		c[1] = c1
	}
	if jw > 2 {
		c[2] = c2
	}
	if jw > 3 {
		c[3] = c3
	}
	if jw > 4 {
		c[4] = c4
	}
	if jw > 5 {
		c[5] = c5
	}
	if jw > 6 {
		c[6] = c6
	}
	if jw > 7 {
		c[7] = c7
	}
}

// fmaPartialTile runs the f64 micro-kernel for a j-tile narrower than fmaNR
// by staging the 4×jw C block in a dense 4×8 scratch.
func fmaPartialTile(out []float64, base, n, jw int, aPtr *float64, aRowB, aStepB int, bp *float64, pk int, load bool) {
	var cbuf [4 * fmaNR]float64
	if load {
		for r := 0; r < 4; r++ {
			copy(cbuf[r*fmaNR:r*fmaNR+jw], out[base+r*n:base+r*n+jw])
		}
	}
	fmaMicro4x8(&cbuf[0], fmaNR*8, aPtr, aRowB, aStepB, bp, fmaNR*8, pk, b2i(load))
	for r := 0; r < 4; r++ {
		copy(out[base+r*n:base+r*n+jw], cbuf[r*fmaNR:r*fmaNR+jw])
	}
}

// fmaPartialTile32 is the float32 counterpart: an 8×jw C block staged in a
// dense 8×8 scratch.
func fmaPartialTile32(out []float32, base, n, jw int, aPtr *float32, aRowB, aStepB int, bp *float32, pk int, load bool) {
	var cbuf [8 * fmaNR]float32
	if load {
		for r := 0; r < 8; r++ {
			copy(cbuf[r*fmaNR:r*fmaNR+jw], out[base+r*n:base+r*n+jw])
		}
	}
	fmaMicro8x8f32(&cbuf[0], fmaNR*4, aPtr, aRowB, aStepB, bp, fmaNR*4, pk, b2i(load))
	for r := 0; r < 8; r++ {
		copy(out[base+r*n:base+r*n+jw], cbuf[r*fmaNR:r*fmaNR+jw])
	}
}

// fmaPartialTile4x32 stages a 4×jw float32 C block through the 4-row
// micro-kernel, for narrow-row leftovers at partial panel width.
func fmaPartialTile4x32(out []float32, base, n, jw int, aPtr *float32, aRowB, aStepB int, bp *float32, pk int, load bool) {
	var cbuf [4 * fmaNR]float32
	if load {
		for r := 0; r < 4; r++ {
			copy(cbuf[r*fmaNR:r*fmaNR+jw], out[base+r*n:base+r*n+jw])
		}
	}
	fmaMicro4x8f32(&cbuf[0], fmaNR*4, aPtr, aRowB, aStepB, bp, fmaNR*4, pk, b2i(load))
	for r := 0; r < 4; r++ {
		copy(out[base+r*n:base+r*n+jw], cbuf[r*fmaNR:r*fmaNR+jw])
	}
}

// packPanelRows packs src[(r0+t)·ld + j0 : … + j0+jw] for t in [0,pk) into
// an 8-wide zero-padded panel: panel[t·8+j] = src row r0+t, column j0+j.
func packPanelRows[F Float](panel, src []F, r0, ld, j0, jw, pk int) {
	if jw == fmaNR {
		CopyRows(panel, src[r0*ld+j0:], pk, fmaNR, fmaNR, ld)
		return
	}
	for t := 0; t < pk; t++ {
		row := src[(r0+t)*ld+j0 : (r0+t)*ld+j0+jw]
		q := panel[fmaNR*t : fmaNR*t+fmaNR]
		for j := 0; j < fmaNR; j++ {
			if j < jw {
				q[j] = row[j]
			} else {
				q[j] = 0
			}
		}
	}
}

// packPanelCols transpose-packs src rows j0..j0+jw (each of length ≥ p0+pk)
// into an 8-wide panel: panel[t·8+j] = src[(j0+j)·ld + p0+t]. Used for A·Bᵀ.
func packPanelCols[F Float](panel, src []F, j0, ld, p0, jw, pk int) {
	for j := 0; j < fmaNR; j++ {
		if j >= jw {
			for t := 0; t < pk; t++ {
				panel[fmaNR*t+j] = 0
			}
			continue
		}
		col := src[(j0+j)*ld+p0 : (j0+j)*ld+p0+pk]
		for t, v := range col {
			panel[fmaNR*t+j] = v
		}
	}
}

// packFreeTiles is inPlaceB's threshold in register tiles; a variable only
// so the differential tests can force packing.
var packFreeTiles = 2

// inPlaceB reports whether an A·B shard of the given row count reads B in
// place instead of packing it. Packing pays off only when several register
// tiles of A rows (tileRows each) stream through a panel; a shard of at most
// packFreeTiles tiles — a convolution's outC of 8 or 16 — would read each
// panel once or twice, so packing would cost a full extra pass over B. Only
// full-width column tiles read in place: the kernels read whole tiles, and
// a partial tile's zero-padded panel keeps them inside the buffer. Both
// forms feed the kernels the same values in the same order, so results are
// bit-identical.
func inPlaceB(rows, tileRows int) bool { return rows <= packFreeTiles*tileRows }

// gemmNNRangeFMA computes rows [lo,hi) of out = a·b with the f64 AVX2
// kernel.
func gemmNNRangeFMA(out, a, b []float64, k, n, lo, hi int, acc bool) {
	pp := getPanel[float64]()
	panel := (*pp)[:gemmKC*fmaNR]
	direct := inPlaceB(hi-lo, 4)
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

// gemmNNRangeFMA32 computes rows [lo,hi) of out = a·b with the f32 AVX2
// kernel: 8×8 register tiles, one 8-lane vector per panel row, double the
// lane count of the f64 kernel at half the working set.
func gemmNNRangeFMA32(out, a, b []float32, k, n, lo, hi int, acc bool) {
	pp := getPanel[float32]()
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
					fmaMicro8x8f32(&out[i*n+j0], n*4, &a[i*k+pc], k*4, 4, bp, bs*4, pk, b2i(load))
				} else {
					fmaPartialTile32(out, i*n+j0, n, jw, &a[i*k+pc], k*4, 4, bp, pk, load)
				}
			}
			for ; i+4 <= hi; i += 4 {
				if jw == fmaNR {
					fmaMicro4x8f32(&out[i*n+j0], n*4, &a[i*k+pc], k*4, 4, bp, bs*4, pk, b2i(load))
				} else {
					fmaPartialTile4x32(out, i*n+j0, n, jw, &a[i*k+pc], k*4, 4, bp, pk, load)
				}
			}
			for ; i < hi; i++ {
				fmaRowTail(out[i*n+j0:i*n+j0+jw], jw, a[i*k+pc:], 1, pk, bsrc, bs, load)
			}
		}
	}
	putPanel(pp)
}

// gemmATRangeFMA computes output rows [plo,phi) of out = aᵀ·b with the f64
// AVX2 kernel; the reduction runs over a's m rows, blocked like the NN
// kernel's k dimension.
func gemmATRangeFMA(out, a, b []float64, m, k, n, plo, phi int, acc bool) {
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

// gemmATRangeFMA32 computes output rows [plo,phi) of out = aᵀ·b with the
// f32 AVX2 kernel.
func gemmATRangeFMA32(out, a, b []float32, m, k, n, plo, phi int, acc bool) {
	pp := getPanel[float32]()
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
					fmaMicro8x8f32(&out[p*n+j0], n*4, &a[ic*k+p], 4, k*4, bp, fmaNR*4, mk, b2i(load))
				} else {
					fmaPartialTile32(out, p*n+j0, n, jw, &a[ic*k+p], 4, k*4, bp, mk, load)
				}
			}
			for ; p+4 <= phi; p += 4 {
				if jw == fmaNR {
					fmaMicro4x8f32(&out[p*n+j0], n*4, &a[ic*k+p], 4, k*4, bp, fmaNR*4, mk, b2i(load))
				} else {
					fmaPartialTile4x32(out, p*n+j0, n, jw, &a[ic*k+p], 4, k*4, bp, mk, load)
				}
			}
			for ; p < phi; p++ {
				fmaRowTail(out[p*n+j0:p*n+j0+jw], jw, a[ic*k+p:], k, mk, panel, fmaNR, load)
			}
		}
	}
	putPanel(pp)
}

// gemmABTRangeFMA computes rows [ilo,ihi) of out = a·bᵀ with the f64 AVX2
// kernel, transpose-packing b panels.
func gemmABTRangeFMA(out, a, b []float64, k, n, ilo, ihi int, acc bool) {
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

// packPanelCols32 is the f32 transpose pack: full-width panels transpose
// through the 8×8 AVX shuffle kernel in blocks of eight reduction steps,
// with scalar fill for the t tail and for partial widths.
func packPanelCols32(panel, src []float32, j0, ld, p0, jw, pk int) {
	if jw == fmaNR {
		t0 := 0
		for ; t0+8 <= pk; t0 += 8 {
			transpose8x8f32(&panel[fmaNR*t0], &src[j0*ld+p0+t0], ld*4)
		}
		for j := 0; j < fmaNR && t0 < pk; j++ {
			col := src[(j0+j)*ld+p0+t0 : (j0+j)*ld+p0+pk]
			for t, v := range col {
				panel[fmaNR*(t0+t)+j] = v
			}
		}
		return
	}
	packPanelCols(panel, src, j0, ld, p0, jw, pk)
}

// gemmABTRangeFMA32 computes rows [ilo,ihi) of out = a·bᵀ with the f32 AVX2
// kernel, transpose-packing b panels.
func gemmABTRangeFMA32(out, a, b []float32, k, n, ilo, ihi int, acc bool) {
	pp := getPanel[float32]()
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
			packPanelCols32(panel, b, j0, k, pc, jw, pk)
			bp := &panel[0]
			i := ilo
			for ; i+8 <= ihi; i += 8 {
				if jw == fmaNR {
					fmaMicro8x8f32(&out[i*n+j0], n*4, &a[i*k+pc], k*4, 4, bp, fmaNR*4, pk, b2i(load))
				} else {
					fmaPartialTile32(out, i*n+j0, n, jw, &a[i*k+pc], k*4, 4, bp, pk, load)
				}
			}
			for ; i+4 <= ihi; i += 4 {
				if jw == fmaNR {
					fmaMicro4x8f32(&out[i*n+j0], n*4, &a[i*k+pc], k*4, 4, bp, fmaNR*4, pk, b2i(load))
				} else {
					fmaPartialTile4x32(out, i*n+j0, n, jw, &a[i*k+pc], k*4, 4, bp, pk, load)
				}
			}
			for ; i < ihi; i++ {
				fmaRowTail(out[i*n+j0:i*n+j0+jw], jw, a[i*k+pc:], 1, pk, panel, fmaNR, load)
			}
		}
	}
	putPanel(pp)
}
