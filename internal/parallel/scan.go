package parallel

// Number captures the element types ExclusiveScan operates on. The builders
// only ever scan counts (int) and SAH partial sums (float64).
type Number interface {
	~int | ~int32 | ~int64 | ~float64
}

// ExclusiveScan computes the exclusive prefix sum of src into dst (dst[i] =
// src[0] + ... + src[i-1], dst[0] = 0) and returns the total sum. dst and
// src must have equal length; dst may alias src.
//
// For inputs past a fixed cutoff the classic two-pass blocked algorithm is
// used: pass one computes per-block sums in parallel, a short sequential
// scan turns them into block offsets, and pass two writes each block's
// prefixes in parallel. This is the "sequence of parallel prefix operations"
// substrate of the nested and in-place builders. Worker panics propagate as
// *WorkerPanic after all workers join (see ForChunks).
//
// Blocks not yet started when cc is canceled are skipped, which leaves dst
// and the returned total meaningless — callers must check cc.Canceled()
// before using either. A nil cc is never canceled.
func ExclusiveScan[T Number](cc *Canceler, dst, src []T, workers int) T {
	if len(dst) != len(src) {
		panic("parallel: ExclusiveScan length mismatch")
	}
	n := len(src)
	if n == 0 || cc.Canceled() {
		var zero T
		return zero
	}
	workers = normWorkers(workers)
	const cutoff = 4096
	if workers == 1 || n < cutoff {
		var sum T
		for i := 0; i < n; i++ {
			v := src[i]
			dst[i] = sum
			sum += v
		}
		return sum
	}

	var ref []T
	if chunkChecks {
		ref = append([]T(nil), src...) // dst may alias src
	}

	blocks := workers
	blockLen := (n + blocks - 1) / blocks
	sums := make([]T, blocks)

	For(cc, blocks, workers, func(bLo, bHi int) {
		for b := bLo; b < bHi; b++ {
			lo, hi := b*blockLen, (b+1)*blockLen
			if lo >= n {
				continue
			}
			if hi > n {
				hi = n
			}
			var s T
			for i := lo; i < hi; i++ {
				s += src[i]
			}
			sums[b] = s
		}
	})
	if cc.Canceled() {
		var zero T
		return zero
	}

	var total T
	for b := 0; b < blocks; b++ {
		s := sums[b]
		sums[b] = total
		total += s
	}

	For(cc, blocks, workers, func(bLo, bHi int) {
		for b := bLo; b < bHi; b++ {
			lo, hi := b*blockLen, (b+1)*blockLen
			if lo >= n {
				continue
			}
			if hi > n {
				hi = n
			}
			run := sums[b]
			for i := lo; i < hi; i++ {
				v := src[i]
				dst[i] = run
				run += v
			}
		}
	})
	if chunkChecks && !cc.Canceled() {
		verifyScan(ref, dst, total)
	}
	return total
}
