//go:build amd64

package tensor

// useVec gates the AVX elementwise kernels in vec_amd64.s; they need the
// same AVX2 feature set the FMA micro-kernels probe for.
var useVec = useFMA

// Implemented in vec_amd64.s. n must be a positive multiple of the lane
// count; callers handle tails.
//
//go:noescape
func vecAdd64(dst, src *float64, n int)

//go:noescape
func vecAdd32(dst, src *float32, n int)

//go:noescape
func vecReluFwd64(out, x *float64, n int)

//go:noescape
func vecReluFwd32(out, x *float32, n int)

//go:noescape
func vecReluBwd64(dx, grad, y *float64, n int)

//go:noescape
func vecReluBwd32(dx, grad, y *float32, n int)

//go:noescape
func fmaMicro4x8f32(c *float32, ldc int, a *float32, aRow, aStep int, bp *float32, bStep, pk int, load int)

//go:noescape
func transpose8x8f32(dst, src *float32, srcStride int)

//go:noescape
func vecSum32(x *float32, n int) float32

//go:noescape
func vecSqDiff32(x *float32, n int, mean float32) float32

//go:noescape
func vecDotSum32(gp, x *float32, n int) (s, d float32)

//go:noescape
func bnNorm32(x, xh, out *float32, n int, mean, inv, gm, b float32)

//go:noescape
func bnGrad32(gy, xh, dst *float32, n int, scale, m, sumDy, sumDyXhat float32)

//go:noescape
func bnNorm64(x, xh, out *float64, n int, mean, inv, gm, b float64)

//go:noescape
func bnGrad64(gy, xh, dst *float64, n int, scale, m, sumDy, sumDyXhat float64)

//go:noescape
func adamStep32(w, gp, m, v *float32, n int, lr, b1, omb1, b2, omb2, eps, c1, c2 float32)

//go:noescape
func addScalar32(dst, src *float32, n int, c float32)

//go:noescape
func adamStep64(w, gp, m, v *float64, n int, lr, b1, omb1, b2, omb2, eps, c1, c2 float64)

//go:noescape
func addScalar64(dst, src *float64, n int, c float64)

//go:noescape
func addRows32(dst, src *float32, rows, n, dstStride, srcStride int)

//go:noescape
func addRows64(dst, src *float64, rows, n, dstStride, srcStride int)

//go:noescape
func copyRows32(dst, src *float32, rows, n, dstStride, srcStride int)

//go:noescape
func copyRows64(dst, src *float64, rows, n, dstStride, srcStride int)
