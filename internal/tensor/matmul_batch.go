package tensor

// Cross-client batched GEMM: each entry point computes G independent
// products outs[g] (+)= op(as[g], bs[g]) in one worker-pool dispatch. The
// federated engine uses these to lower a same-arch cohort's per-layer
// products — one per client — into a single launch per layer instead of G.
//
// Determinism contract (DESIGN.md §12): a batched call is byte-identical to
// the G standalone calls at every GOMAXPROCS. Each product keeps the shard
// plan the standalone driver would pick — same kernel tier, same
// tile-aligned [lo,hi) ranges — and the fused dispatch only changes *which
// goroutine* runs a (product, shard) unit, never the arithmetic inside it.
// Products with non-uniform shapes or dtypes fall back to sequential
// standalone calls, which trivially preserves the contract.

// batchUniform reports whether every product in the batch shares the shapes
// and backing dtype of product 0, so one shard plan serves all of them.
func batchUniform(outs, as, bs []*Tensor) bool {
	a0, b0 := as[0], bs[0]
	dt := outs[0].DT.Backing()
	for g := 1; g < len(outs); g++ {
		if as[g].Shape[0] != a0.Shape[0] || as[g].Shape[1] != a0.Shape[1] ||
			bs[g].Shape[0] != b0.Shape[0] || bs[g].Shape[1] != b0.Shape[1] ||
			outs[g].DT.Backing() != dt || as[g].DT.Backing() != dt || bs[g].DT.Backing() != dt {
			return false
		}
	}
	return true
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

// checkBatch validates the batch structure shared by all entry points.
func checkBatch(outs, as, bs []*Tensor) {
	if len(outs) != len(as) || len(outs) != len(bs) {
		panic("tensor: batched GEMM length mismatch")
	}
}

// MatMulBatchInto computes outs[g] = as[g]·bs[g] for every g (see MatMulInto).
func MatMulBatchInto(outs, as, bs []*Tensor) { batchGemmNN(outs, as, bs, false) }

func batchGemmNN(outs, as, bs []*Tensor, acc bool) {
	checkBatch(outs, as, bs)
	if len(outs) == 0 {
		return
	}
	for g := range outs {
		m, k := as[g].Shape[0], as[g].Shape[1]
		n := bs[g].Shape[1]
		if bs[g].Shape[0] != k || outs[g].Shape[0] != m || outs[g].Shape[1] != n {
			panic("tensor: MatMulBatchInto shape mismatch")
		}
	}
	if !batchUniform(outs, as, bs) {
		for g := range outs {
			gemmNN(outs[g], as[g], bs[g], acc)
		}
		return
	}
	m, k := as[0].Shape[0], as[0].Shape[1]
	n := bs[0].Shape[1]
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !acc {
			for g := range outs {
				outs[g].Zero()
			}
		}
		return
	}
	chunk, nsh := opShardPlan(m, m*k*n)
	if outs[0].DT.Backing() == F32 {
		kernel := gemmNNRange[float32]
		if avx51232For(n) {
			kernel = gemmNNRangeAVX51232
		} else if useFMA32 {
			kernel = gemmNNRangeFMA32
		}
		Parallel(len(outs)*nsh, func(u int) {
			g, s := u/nsh, u%nsh
			lo := s * chunk
			hi := lo + chunk
			if hi > m {
				hi = m
			}
			kernel(Of[float32](outs[g]), Of[float32](as[g]), Of[float32](bs[g]), k, n, lo, hi, acc)
		})
		return
	}
	kernel := gemmNNRange[float64]
	if useAVX512 {
		kernel = gemmNNRangeAVX512
	} else if useFMA {
		kernel = gemmNNRangeFMA
	}
	Parallel(len(outs)*nsh, func(u int) {
		g, s := u/nsh, u%nsh
		lo := s * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		kernel(outs[g].Data, Of[float64](as[g]), Of[float64](bs[g]), k, n, lo, hi, acc)
	})
}

// MatMulBatchATBAcc computes outs[g] += as[g]ᵀ·bs[g] (see MatMulATBAcc).
func MatMulBatchATBAcc(outs, as, bs []*Tensor) { batchGemmAT(outs, as, bs, true) }

func batchGemmAT(outs, as, bs []*Tensor, acc bool) {
	checkBatch(outs, as, bs)
	if len(outs) == 0 {
		return
	}
	for g := range outs {
		m, k := as[g].Shape[0], as[g].Shape[1]
		n := bs[g].Shape[1]
		if bs[g].Shape[0] != m || outs[g].Shape[0] != k || outs[g].Shape[1] != n {
			panic("tensor: MatMulBatchATB shape mismatch")
		}
	}
	if !batchUniform(outs, as, bs) {
		for g := range outs {
			gemmAT(outs[g], as[g], bs[g], acc)
		}
		return
	}
	m, k := as[0].Shape[0], as[0].Shape[1]
	n := bs[0].Shape[1]
	if k == 0 || n == 0 {
		return
	}
	chunk, nsh := opShardPlan(k, m*k*n)
	if outs[0].DT.Backing() == F32 {
		kernel := gemmATRange[float32]
		if avx51232For(n) {
			kernel = gemmATRangeAVX51232
		} else if useFMA32 {
			kernel = gemmATRangeFMA32
		}
		Parallel(len(outs)*nsh, func(u int) {
			g, s := u/nsh, u%nsh
			lo := s * chunk
			hi := lo + chunk
			if hi > k {
				hi = k
			}
			kernel(Of[float32](outs[g]), Of[float32](as[g]), Of[float32](bs[g]), m, k, n, lo, hi, acc)
		})
		return
	}
	kernel := gemmATRange[float64]
	if useAVX512 {
		kernel = gemmATRangeAVX512
	} else if useFMA {
		kernel = gemmATRangeFMA
	}
	Parallel(len(outs)*nsh, func(u int) {
		g, s := u/nsh, u%nsh
		lo := s * chunk
		hi := lo + chunk
		if hi > k {
			hi = k
		}
		kernel(outs[g].Data, Of[float64](as[g]), Of[float64](bs[g]), m, k, n, lo, hi, acc)
	})
}

// MatMulBatchABTInto computes outs[g] = as[g]·bs[g]ᵀ (see MatMulABTInto).
func MatMulBatchABTInto(outs, as, bs []*Tensor) { batchGemmABT(outs, as, bs, false) }

// MatMulBatchABTAcc computes outs[g] += as[g]·bs[g]ᵀ (see MatMulABTAcc).
func MatMulBatchABTAcc(outs, as, bs []*Tensor) { batchGemmABT(outs, as, bs, true) }

func batchGemmABT(outs, as, bs []*Tensor, acc bool) {
	checkBatch(outs, as, bs)
	if len(outs) == 0 {
		return
	}
	for g := range outs {
		m, k := as[g].Shape[0], as[g].Shape[1]
		n := bs[g].Shape[0]
		if bs[g].Shape[1] != k || outs[g].Shape[0] != m || outs[g].Shape[1] != n {
			panic("tensor: MatMulBatchABT shape mismatch")
		}
	}
	if !batchUniform(outs, as, bs) {
		for g := range outs {
			gemmABT(outs[g], as[g], bs[g], acc)
		}
		return
	}
	m, k := as[0].Shape[0], as[0].Shape[1]
	n := bs[0].Shape[0]
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !acc {
			for g := range outs {
				outs[g].Zero()
			}
		}
		return
	}
	chunk, nsh := opShardPlan(m, m*k*n)
	if outs[0].DT.Backing() == F32 {
		kernel := gemmABTRange[float32]
		if avx51232For(n) {
			kernel = gemmABTRangeAVX51232
		} else if useFMA32 {
			kernel = gemmABTRangeFMA32
		}
		Parallel(len(outs)*nsh, func(u int) {
			g, s := u/nsh, u%nsh
			lo := s * chunk
			hi := lo + chunk
			if hi > m {
				hi = m
			}
			kernel(Of[float32](outs[g]), Of[float32](as[g]), Of[float32](bs[g]), k, n, lo, hi, acc)
		})
		return
	}
	kernel := gemmABTRange[float64]
	if useAVX512 {
		kernel = gemmABTRangeAVX512
	} else if useFMA {
		kernel = gemmABTRangeFMA
	}
	Parallel(len(outs)*nsh, func(u int) {
		g, s := u/nsh, u%nsh
		lo := s * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		kernel(outs[g].Data, Of[float64](as[g]), Of[float64](bs[g]), k, n, lo, hi, acc)
	})
}
