// Package scratch is a size-adaptive free list for the large temporary
// buffers of the hot counting and measurement passes (row-window sums,
// bit-plane dilation fields, cluster labels). The batch sweep engine
// runs one model per cell and measures it, so without reuse every cell
// pays a fresh round of O(n^2) scratch allocations; recycling them
// through a sync.Pool — whose per-P caches make this per-worker reuse
// without threading state through every call — removes that churn
// while leaving every public API returning ordinary, caller-owned
// slices.
//
// Buffers come back with arbitrary contents: callers must fully
// initialize what they take (every current user writes each entry
// before reading it), so pooling can never change a result.
package scratch

import "sync"

var (
	i32Pool sync.Pool
	u64Pool sync.Pool
)

// I32 returns a pointer to a length-n []int32 with arbitrary contents,
// reusing a pooled buffer when one of sufficient capacity is
// available. Return it with PutI32 when done.
func I32(n int) *[]int32 {
	if v, _ := i32Pool.Get().(*[]int32); v != nil && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	b := make([]int32, n)
	return &b
}

// PutI32 recycles a buffer obtained from I32. The caller must not use
// the slice afterwards.
func PutI32(b *[]int32) { i32Pool.Put(b) }

// U64 returns a pointer to a length-n []uint64 with arbitrary contents,
// reusing a pooled buffer when one of sufficient capacity is
// available. Return it with PutU64 when done.
func U64(n int) *[]uint64 {
	if v, _ := u64Pool.Get().(*[]uint64); v != nil && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	b := make([]uint64, n)
	return &b
}

// PutU64 recycles a buffer obtained from U64. The caller must not use
// the slice afterwards.
func PutU64(b *[]uint64) { u64Pool.Put(b) }
