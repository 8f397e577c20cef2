// AVX elementwise kernels for the vector primitives in vec.go. Every kernel
// processes n elements where n is a positive multiple of the lane count
// (4 float64 / 8 float32); Go wrappers handle the scalar tail. The bodies
// are element-independent (no horizontal reductions), so results are
// bit-identical to the scalar loops.

#include "textflag.h"

// func vecAdd64(dst, src *float64, n int)   // dst[i] += src[i]
TEXT ·vecAdd64(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $2, CX

add64loop:
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     add64loop
	VZEROUPPER
	RET

// func vecAdd32(dst, src *float32, n int)
TEXT ·vecAdd32(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX

add32loop:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     add32loop
	VZEROUPPER
	RET

// func vecReluFwd64(out, x *float64, n int)   // out = max(x, +0); NaN → +0
//
// MAXPD returns the second source when the operands are both zero or either
// is NaN, so with +0 as the second source the lane result matches the
// scalar `if v > 0 { v } else { 0 }` exactly (including -0 and NaN inputs).
TEXT ·vecReluFwd64(SB), NOSPLIT, $0-24
	MOVQ   out+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   n+16(FP), CX
	SHRQ   $2, CX
	VXORPD Y1, Y1, Y1

relufwd64loop:
	VMOVUPD (SI), Y0
	VMAXPD  Y1, Y0, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     relufwd64loop
	VZEROUPPER
	RET

// func vecReluFwd32(out, x *float32, n int)
TEXT ·vecReluFwd32(SB), NOSPLIT, $0-24
	MOVQ   out+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   n+16(FP), CX
	SHRQ   $3, CX
	VXORPS Y1, Y1, Y1

relufwd32loop:
	VMOVUPS (SI), Y0
	VMAXPS  Y1, Y0, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     relufwd32loop
	VZEROUPPER
	RET

// func vecReluBwd64(dx, grad, y *float64, n int)   // dx = grad where y > 0
//
// CMPPD with predicate 0x1E (GT_OQ) produces an all-ones mask where
// y > 0 (ordered, quiet — NaN compares false), which gates grad via ANDPD.
TEXT ·vecReluBwd64(SB), NOSPLIT, $0-32
	MOVQ   dx+0(FP), DI
	MOVQ   grad+8(FP), SI
	MOVQ   y+16(FP), DX
	MOVQ   n+24(FP), CX
	SHRQ   $2, CX
	VXORPD Y3, Y3, Y3

relubwd64loop:
	VMOVUPD (DX), Y0
	VCMPPD  $0x1e, Y3, Y0, Y1
	VMOVUPD (SI), Y2
	VANDPD  Y2, Y1, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     relubwd64loop
	VZEROUPPER
	RET

// func vecReluBwd32(dx, grad, y *float32, n int)
TEXT ·vecReluBwd32(SB), NOSPLIT, $0-32
	MOVQ   dx+0(FP), DI
	MOVQ   grad+8(FP), SI
	MOVQ   y+16(FP), DX
	MOVQ   n+24(FP), CX
	SHRQ   $3, CX
	VXORPS Y3, Y3, Y3

relubwd32loop:
	VMOVUPS (DX), Y0
	VCMPPS  $0x1e, Y3, Y0, Y1
	VMOVUPS (SI), Y2
	VANDPS  Y2, Y1, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     relubwd32loop
	VZEROUPPER
	RET

// func fmaMicro4x8f32(c *float32, ldc int, a *float32, aRow, aStep int, bp *float32, bStep, pk int, load int)
//
// The 4-row little sibling of fmaMicro8x8f32, for GEMM shapes whose output
// has fewer than 8 rows (narrow grouped convolutions): C[r, 0:8] (+)=
// Σ_t A[r, t]·B[t, 0:8] for r in 0..3. Same calling convention.
TEXT ·fmaMicro4x8f32(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ aRow+24(FP), R8
	MOVQ aStep+32(FP), R9
	MOVQ bp+40(FP), BX
	MOVQ bStep+48(FP), R14
	MOVQ pk+56(FP), DX
	MOVQ load+64(FP), AX

	LEAQ (R8)(R8*2), R13 // 3·aRow
	LEAQ (DI)(CX*1), R10 // C row 1
	LEAQ (R10)(CX*1), R11 // C row 2
	LEAQ (R11)(CX*1), R12 // C row 3

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	TESTQ AX, AX
	JZ    loop4x32
	VMOVUPS (DI), Y0
	VMOVUPS (R10), Y1
	VMOVUPS (R11), Y2
	VMOVUPS (R12), Y3

	PCALIGN $32
loop4x32:
	VMOVUPS      (BX), Y8
	VBROADCASTSS (SI), Y10
	VBROADCASTSS (SI)(R8*1), Y11
	VBROADCASTSS (SI)(R8*2), Y12
	VBROADCASTSS (SI)(R13*1), Y13
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y8, Y11, Y1
	VFMADD231PS  Y8, Y12, Y2
	VFMADD231PS  Y8, Y13, Y3
	ADDQ         R14, BX
	ADDQ         R9, SI
	DECQ         DX
	JNZ          loop4x32

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (R10)
	VMOVUPS Y2, (R11)
	VMOVUPS Y3, (R12)
	VZEROUPPER
	RET

// func transpose8x8f32(dst, src *float32, srcStride int)
//
// Writes dst[t·8+j] = src[j·stride + t·4] for j,t in 0..7 (stride in
// bytes): the 8×8 float32 transpose at the heart of the A·Bᵀ panel pack,
// via the classic unpack/shuffle/permute lattice.
TEXT ·transpose8x8f32(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ srcStride+16(FP), CX

	LEAQ    (CX)(CX*2), R8 // 3·stride
	LEAQ    (SI)(CX*4), R9 // row 4 base
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(CX*1), Y1
	VMOVUPS (SI)(CX*2), Y2
	VMOVUPS (SI)(R8*1), Y3
	VMOVUPS (R9), Y4
	VMOVUPS (R9)(CX*1), Y5
	VMOVUPS (R9)(CX*2), Y6
	VMOVUPS (R9)(R8*1), Y7

	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15

	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7

	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15

	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	VMOVUPS Y10, 64(DI)
	VMOVUPS Y11, 96(DI)
	VMOVUPS Y12, 128(DI)
	VMOVUPS Y13, 160(DI)
	VMOVUPS Y14, 192(DI)
	VMOVUPS Y15, 224(DI)
	VZEROUPPER
	RET

// func vecSum32(x *float32, n int) float32   // n > 0, multiple of 8
TEXT ·vecSum32(SB), NOSPLIT, $0-20
	MOVQ   x+0(FP), SI
	MOVQ   n+8(FP), CX
	SHRQ   $3, CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

sum32pair:
	CMPQ   CX, $2
	JL     sum32one
	VADDPS (SI), Y0, Y0
	VADDPS 32(SI), Y1, Y1
	ADDQ   $64, SI
	SUBQ   $2, CX
	JMP    sum32pair

sum32one:
	TESTQ  CX, CX
	JZ     sum32done
	VADDPS (SI), Y0, Y0

sum32done:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET

// func vecSqDiff32(x *float32, n int, mean float32) float32
TEXT ·vecSqDiff32(SB), NOSPLIT, $0-28
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS mean+16(FP), Y3
	VXORPS       Y0, Y0, Y0
	VXORPS       Y4, Y4, Y4

sqd32pair:
	CMPQ        CX, $2
	JL          sqd32one
	VMOVUPS     (SI), Y2
	VSUBPS      Y3, Y2, Y2
	VFMADD231PS Y2, Y2, Y0
	VMOVUPS     32(SI), Y5
	VSUBPS      Y3, Y5, Y5
	VFMADD231PS Y5, Y5, Y4
	ADDQ        $64, SI
	SUBQ        $2, CX
	JMP         sqd32pair

sqd32one:
	TESTQ       CX, CX
	JZ          sqd32done
	VMOVUPS     (SI), Y2
	VSUBPS      Y3, Y2, Y2
	VFMADD231PS Y2, Y2, Y0

sqd32done:
	VADDPS       Y4, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VMOVSS       X0, ret+24(FP)
	VZEROUPPER
	RET

// func vecDotSum32(gp, x *float32, n int) (s, d float32)
// s = Σ gp[i], d = Σ gp[i]·x[i] — the batch-norm backward reductions fused.
TEXT ·vecDotSum32(SB), NOSPLIT, $0-32
	MOVQ   gp+0(FP), SI
	MOVQ   x+8(FP), DX
	MOVQ   n+16(FP), CX
	SHRQ   $3, CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

dot32loop:
	VMOVUPS     (SI), Y2
	VADDPS      Y2, Y0, Y0
	VFMADD231PS (DX), Y2, Y1
	ADDQ        $32, SI
	ADDQ        $32, DX
	DECQ        CX
	JNZ         dot32loop

	VEXTRACTF128 $1, Y0, X2
	VADDPS       X2, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VMOVSS       X0, s+24(FP)
	VEXTRACTF128 $1, Y1, X2
	VADDPS       X2, X1, X1
	VHADDPS      X1, X1, X1
	VHADDPS      X1, X1, X1
	VMOVSS       X1, d+28(FP)
	VZEROUPPER
	RET

// func bnNorm32(x, xh, out *float32, n int, mean, inv, gm, b float32)
//
// xh = (x-mean)·inv; out = gm·xh + b, with the same sub/mul/mul/add rounding
// sequence as the scalar loop, so results are bit-identical to it.
TEXT ·bnNorm32(SB), NOSPLIT, $0-48
	MOVQ         x+0(FP), SI
	MOVQ         xh+8(FP), DX
	MOVQ         out+16(FP), DI
	MOVQ         n+24(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS mean+32(FP), Y4
	VBROADCASTSS inv+36(FP), Y5
	VBROADCASTSS gm+40(FP), Y6
	VBROADCASTSS b+44(FP), Y7

bnn32loop:
	VMOVUPS (SI), Y0
	VSUBPS  Y4, Y0, Y0
	VMULPS  Y5, Y0, Y0
	VMOVUPS Y0, (DX)
	VMULPS  Y6, Y0, Y1
	VADDPS  Y7, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     bnn32loop
	VZEROUPPER
	RET

// func bnGrad32(gy, xh, dst *float32, n int, scale, m, sumDy, sumDyXhat float32)
//
// dst = scale·(m·gy − sumDy − xh·sumDyXhat), same rounding sequence as the
// scalar loop.
TEXT ·bnGrad32(SB), NOSPLIT, $0-48
	MOVQ         gy+0(FP), SI
	MOVQ         xh+8(FP), DX
	MOVQ         dst+16(FP), DI
	MOVQ         n+24(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS scale+32(FP), Y4
	VBROADCASTSS m+36(FP), Y5
	VBROADCASTSS sumDy+40(FP), Y6
	VBROADCASTSS sumDyXhat+44(FP), Y7

bng32loop:
	VMOVUPS (SI), Y0
	VMULPS  Y5, Y0, Y0
	VSUBPS  Y6, Y0, Y0
	VMOVUPS (DX), Y1
	VMULPS  Y7, Y1, Y1
	VSUBPS  Y1, Y0, Y0
	VMULPS  Y4, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     bng32loop
	VZEROUPPER
	RET

// func bnNorm64(x, xh, out *float64, n int, mean, inv, gm, b float64)
//
// The float64 twin of bnNorm32: 4 doubles per step, identical sub/mul/mul/add
// rounding sequence to the scalar reference loop, so the float64 golden path
// stays bit-frozen. n must be a positive multiple of 4.
TEXT ·bnNorm64(SB), NOSPLIT, $0-64
	MOVQ         x+0(FP), SI
	MOVQ         xh+8(FP), DX
	MOVQ         out+16(FP), DI
	MOVQ         n+24(FP), CX
	SHRQ         $2, CX
	VBROADCASTSD mean+32(FP), Y4
	VBROADCASTSD inv+40(FP), Y5
	VBROADCASTSD gm+48(FP), Y6
	VBROADCASTSD b+56(FP), Y7

bnn64loop:
	VMOVUPD (SI), Y0
	VSUBPD  Y4, Y0, Y0
	VMULPD  Y5, Y0, Y0
	VMOVUPD Y0, (DX)
	VMULPD  Y6, Y0, Y1
	VADDPD  Y7, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     bnn64loop
	VZEROUPPER
	RET

// func bnGrad64(gy, xh, dst *float64, n int, scale, m, sumDy, sumDyXhat float64)
//
// The float64 twin of bnGrad32, same rounding sequence as the scalar
// reference loop. n must be a positive multiple of 4.
TEXT ·bnGrad64(SB), NOSPLIT, $0-64
	MOVQ         gy+0(FP), SI
	MOVQ         xh+8(FP), DX
	MOVQ         dst+16(FP), DI
	MOVQ         n+24(FP), CX
	SHRQ         $2, CX
	VBROADCASTSD scale+32(FP), Y4
	VBROADCASTSD m+40(FP), Y5
	VBROADCASTSD sumDy+48(FP), Y6
	VBROADCASTSD sumDyXhat+56(FP), Y7

bng64loop:
	VMOVUPD (SI), Y0
	VMULPD  Y5, Y0, Y0
	VSUBPD  Y6, Y0, Y0
	VMOVUPD (DX), Y1
	VMULPD  Y7, Y1, Y1
	VSUBPD  Y1, Y0, Y0
	VMULPD  Y4, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     bng64loop
	VZEROUPPER
	RET

// func adamStep32(w, gp, m, v *float32, n int, lr, b1, omb1, b2, omb2, eps, c1, c2 float32)
//
// One bias-corrected Adam update over n elements (n multiple of 8):
//   m = b1·m + omb1·g;  v = b2·v + omb2·g²
//   w -= lr · (m/c1) / (sqrt(v/c2) + eps)
// VSQRTPS computes the correctly rounded single-precision root directly
// (the scalar fallback rounds through float64), so lanes may differ from
// the scalar path by an ulp — within the float32 path's accuracy budget.
TEXT ·adamStep32(SB), NOSPLIT, $0-72
	MOVQ w+0(FP), DI
	MOVQ gp+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	SHRQ $3, CX

	VBROADCASTSS lr+40(FP), Y15
	VBROADCASTSS b1+44(FP), Y8
	VBROADCASTSS omb1+48(FP), Y9
	VBROADCASTSS b2+52(FP), Y10
	VBROADCASTSS omb2+56(FP), Y11
	VBROADCASTSS eps+60(FP), Y12
	VBROADCASTSS c1+64(FP), Y13
	VBROADCASTSS c2+68(FP), Y14

adam32loop:
	VMOVUPS     (R8), Y0
	VMULPS      Y8, Y0, Y0
	VMOVUPS     (SI), Y1
	VFMADD231PS Y9, Y1, Y0
	VMOVUPS     Y0, (R8)
	VMOVUPS     (R9), Y2
	VMULPS      Y10, Y2, Y2
	VMULPS      Y1, Y1, Y3
	VFMADD231PS Y11, Y3, Y2
	VMOVUPS     Y2, (R9)
	VDIVPS      Y13, Y0, Y0
	VDIVPS      Y14, Y2, Y2
	VSQRTPS     Y2, Y2
	VADDPS      Y12, Y2, Y2
	VDIVPS      Y2, Y0, Y0
	VMULPS      Y15, Y0, Y0
	VMOVUPS     (DI), Y3
	VSUBPS      Y0, Y3, Y3
	VMOVUPS     Y3, (DI)
	ADDQ        $32, DI
	ADDQ        $32, SI
	ADDQ        $32, R8
	ADDQ        $32, R9
	DECQ        CX
	JNZ         adam32loop
	VZEROUPPER
	RET

// func addScalar32(dst, src *float32, n int, c float32)   // dst = src + c
TEXT ·addScalar32(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS c+24(FP), Y1

adds32loop:
	VMOVUPS (SI), Y0
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     adds32loop
	VZEROUPPER
	RET

// func addRows32(dst, src *float32, rows, n, dstStride, srcStride int)
//
// dst[r·dstStride + i] += src[r·srcStride + i] for r < rows, i < n
// (strides in bytes): the col2im scatter-accumulate, one tap per call.
// Vector body plus in-kernel scalar tail — no masked moves, which are
// slow on several virtualized hosts. Element-independent adds, so results
// are bit-identical to the scalar loop.
TEXT ·addRows32(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ dstStride+32(FP), R10
	MOVQ srcStride+40(FP), R11
	MOVQ R9, R15
	ANDQ $7, R15 // tail count
	SHRQ $3, R9  // vector count

arow32:
	MOVQ  DI, R13
	MOVQ  SI, R14
	MOVQ  R9, CX
	TESTQ CX, CX
	JZ    atail32

avec32:
	VMOVUPS (R13), Y0
	VADDPS  (R14), Y0, Y0
	VMOVUPS Y0, (R13)
	ADDQ    $32, R13
	ADDQ    $32, R14
	DECQ    CX
	JNZ     avec32

atail32:
	MOVQ  R15, CX
	TESTQ CX, CX
	JZ    anext32

ascl32:
	VMOVSS (R13), X0
	VADDSS (R14), X0, X0
	VMOVSS X0, (R13)
	ADDQ   $4, R13
	ADDQ   $4, R14
	DECQ   CX
	JNZ    ascl32

anext32:
	ADDQ R10, DI
	ADDQ R11, SI
	DECQ R8
	JNZ  arow32
	VZEROUPPER
	RET

// func addRows64(dst, src *float64, rows, n, dstStride, srcStride int)
TEXT ·addRows64(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ dstStride+32(FP), R10
	MOVQ srcStride+40(FP), R11
	MOVQ R9, R15
	ANDQ $3, R15
	SHRQ $2, R9

arow64:
	MOVQ  DI, R13
	MOVQ  SI, R14
	MOVQ  R9, CX
	TESTQ CX, CX
	JZ    atail64

avec64:
	VMOVUPD (R13), Y0
	VADDPD  (R14), Y0, Y0
	VMOVUPD Y0, (R13)
	ADDQ    $32, R13
	ADDQ    $32, R14
	DECQ    CX
	JNZ     avec64

atail64:
	MOVQ  R15, CX
	TESTQ CX, CX
	JZ    anext64

ascl64:
	VMOVSD (R13), X0
	VADDSD (R14), X0, X0
	VMOVSD X0, (R13)
	ADDQ   $8, R13
	ADDQ   $8, R14
	DECQ   CX
	JNZ    ascl64

anext64:
	ADDQ R10, DI
	ADDQ R11, SI
	DECQ R8
	JNZ  arow64
	VZEROUPPER
	RET

// func copyRows32(dst, src *float32, rows, n, dstStride, srcStride int)
//
// dst[r·dstStride + i] = src[r·srcStride + i]: the im2col row traffic,
// fused into one call per tap (vector body + in-kernel scalar tail).
TEXT ·copyRows32(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ dstStride+32(FP), R10
	MOVQ srcStride+40(FP), R11
	MOVQ R9, R15
	ANDQ $7, R15
	SHRQ $3, R9

crow32:
	MOVQ  DI, R13
	MOVQ  SI, R14
	MOVQ  R9, CX
	TESTQ CX, CX
	JZ    ctail32

cvec32:
	VMOVUPS (R14), Y0
	VMOVUPS Y0, (R13)
	ADDQ    $32, R13
	ADDQ    $32, R14
	DECQ    CX
	JNZ     cvec32

ctail32:
	MOVQ  R15, CX
	TESTQ CX, CX
	JZ    cnext32

cscl32:
	VMOVSS (R14), X0
	VMOVSS X0, (R13)
	ADDQ   $4, R13
	ADDQ   $4, R14
	DECQ   CX
	JNZ    cscl32

cnext32:
	ADDQ R10, DI
	ADDQ R11, SI
	DECQ R8
	JNZ  crow32
	VZEROUPPER
	RET

// func copyRows64(dst, src *float64, rows, n, dstStride, srcStride int)
TEXT ·copyRows64(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ dstStride+32(FP), R10
	MOVQ srcStride+40(FP), R11
	MOVQ R9, R15
	ANDQ $3, R15
	SHRQ $2, R9

crow64:
	MOVQ  DI, R13
	MOVQ  SI, R14
	MOVQ  R9, CX
	TESTQ CX, CX
	JZ    ctail64

cvec64:
	VMOVUPD (R14), Y0
	VMOVUPD Y0, (R13)
	ADDQ    $32, R13
	ADDQ    $32, R14
	DECQ    CX
	JNZ     cvec64

ctail64:
	MOVQ  R15, CX
	TESTQ CX, CX
	JZ    cnext64

cscl64:
	VMOVSD (R14), X0
	VMOVSD X0, (R13)
	ADDQ   $8, R13
	ADDQ   $8, R14
	DECQ   CX
	JNZ    cscl64

cnext64:
	ADDQ R10, DI
	ADDQ R11, SI
	DECQ R8
	JNZ  crow64
	VZEROUPPER
	RET

// func adamStep64(w, gp, m, v *float64, n int, lr, b1, omb1, b2, omb2, eps, c1, c2 float64)
//
// f64 twin of adamStep32 (n multiple of 4). Unlike the f32 kernel this one
// avoids FMA and mirrors the scalar expression's rounding sequence exactly
// — separate multiplies, then add — and VSQRTPD is the same correctly
// rounded root math.Sqrt takes, so every lane is bit-identical to the
// scalar loop: the f64 golden path stays frozen.
TEXT ·adamStep64(SB), NOSPLIT, $0-104
	MOVQ w+0(FP), DI
	MOVQ gp+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	SHRQ $2, CX

	VBROADCASTSD lr+40(FP), Y15
	VBROADCASTSD b1+48(FP), Y8
	VBROADCASTSD omb1+56(FP), Y9
	VBROADCASTSD b2+64(FP), Y10
	VBROADCASTSD omb2+72(FP), Y11
	VBROADCASTSD eps+80(FP), Y12
	VBROADCASTSD c1+88(FP), Y13
	VBROADCASTSD c2+96(FP), Y14

adam64loop:
	VMOVUPD (R8), Y0
	VMULPD  Y8, Y0, Y0   // b1·m
	VMOVUPD (SI), Y1
	VMULPD  Y9, Y1, Y2   // omb1·g
	VADDPD  Y2, Y0, Y0   // m' = b1·m + omb1·g
	VMOVUPD Y0, (R8)
	VMOVUPD (R9), Y2
	VMULPD  Y10, Y2, Y2  // b2·v
	VMULPD  Y11, Y1, Y3  // omb2·g
	VMULPD  Y1, Y3, Y3   // (omb2·g)·g, as the scalar's left association
	VADDPD  Y3, Y2, Y2   // v' = b2·v + omb2·g·g
	VMOVUPD Y2, (R9)
	VDIVPD  Y13, Y0, Y0  // mh = m'/c1
	VDIVPD  Y14, Y2, Y2  // vh = v'/c2
	VSQRTPD Y2, Y2
	VADDPD  Y12, Y2, Y2  // sqrt(vh) + eps
	VMULPD  Y15, Y0, Y0  // lr·mh
	VDIVPD  Y2, Y0, Y0   // (lr·mh)/(sqrt(vh)+eps)
	VMOVUPD (DI), Y3
	VSUBPD  Y0, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    CX
	JNZ     adam64loop
	VZEROUPPER
	RET

// func addScalar64(dst, src *float64, n int, c float64)   // dst = src + c
TEXT ·addScalar64(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	SHRQ         $2, CX
	VBROADCASTSD c+24(FP), Y1

adds64loop:
	VMOVUPD (SI), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     adds64loop
	VZEROUPPER
	RET
