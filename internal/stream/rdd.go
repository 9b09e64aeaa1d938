package stream

import (
	"sync"
)

// RDD is a lazy, partitioned dataset: lineage plus a per-partition
// compute function. It is immutable; transformations return new RDDs.
type RDD[T any] struct {
	numParts int
	compute  func(part int) []T
	cache    *cacheState[T]
}

type cacheState[T any] struct {
	mu    sync.Mutex
	parts [][]T
	done  []bool
}

// FromPartitions builds an RDD whose partitions are the given slices.
// The slices are referenced, not copied.
func FromPartitions[T any](parts [][]T) *RDD[T] {
	return &RDD[T]{
		numParts: len(parts),
		compute:  func(p int) []T { return parts[p] },
	}
}

// NumPartitions returns the partition count — the engine's unit of
// parallelism.
func (r *RDD[T]) NumPartitions() int { return r.numParts }

// Cache marks the RDD so that each partition is materialized at most
// once; later actions reuse the cached data instead of recomputing
// lineage.
func (r *RDD[T]) Cache() *RDD[T] {
	if r.cache != nil {
		return r
	}
	return &RDD[T]{
		numParts: r.numParts,
		compute:  r.compute,
		cache: &cacheState[T]{
			parts: make([][]T, r.numParts),
			done:  make([]bool, r.numParts),
		},
	}
}

// partition computes (or fetches from cache) one partition.
func (r *RDD[T]) partition(p int) []T {
	c := r.cache
	if c == nil {
		return r.compute(p)
	}
	c.mu.Lock()
	if c.done[p] {
		out := c.parts[p]
		c.mu.Unlock()
		return out
	}
	c.mu.Unlock()
	out := r.compute(p)
	c.mu.Lock()
	if !c.done[p] {
		c.parts[p] = out
		c.done[p] = true
	} else {
		out = c.parts[p]
	}
	c.mu.Unlock()
	return out
}

// Map applies f to every element.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return &RDD[U]{
		numParts: r.numParts,
		compute: func(p int) []U {
			in := r.partition(p)
			out := make([]U, len(in))
			for i, v := range in {
				out[i] = f(v)
			}
			return out
		},
	}
}

// Filter keeps the elements for which pred is true.
func Filter[T any](r *RDD[T], pred func(T) bool) *RDD[T] {
	return &RDD[T]{
		numParts: r.numParts,
		compute: func(p int) []T {
			in := r.partition(p)
			var out []T
			for _, v := range in {
				if pred(v) {
					out = append(out, v)
				}
			}
			return out
		},
	}
}

// KV is a key-value pair for shuffle operations.
type KV[K comparable, V any] struct {
	Key K
	Val V
}

// ReduceByKey merges all values per key with reduce. The result has
// the same partition count, keys hashed across partitions.
func ReduceByKey[K comparable, V any](r *RDD[KV[K, V]], reduce func(a, b V) V, pool *Pool) *RDD[KV[K, V]] {
	// Local combine per partition, then a single merge (single-node
	// shuffle), then split back into partitions by key order.
	partMaps := make([]map[K]V, r.numParts)
	pool.Run(r.numParts, func(p int) {
		m := make(map[K]V)
		for _, kv := range r.partition(p) {
			if cur, ok := m[kv.Key]; ok {
				m[kv.Key] = reduce(cur, kv.Val)
			} else {
				m[kv.Key] = kv.Val
			}
		}
		partMaps[p] = m
	})
	merged := make(map[K]V)
	for _, m := range partMaps {
		for k, v := range m {
			if cur, ok := merged[k]; ok {
				merged[k] = reduce(cur, v)
			} else {
				merged[k] = v
			}
		}
	}
	out := make([][]KV[K, V], r.numParts)
	i := 0
	for k, v := range merged {
		out[i%r.numParts] = append(out[i%r.numParts], KV[K, V]{k, v})
		i++
	}
	return FromPartitions(out)
}

// Distinct returns the distinct elements of r under the key function —
// used by the workflow of §4.1 to extract "all devices that trigger an
// alarm within the observation period".
func Distinct[T any, K comparable](r *RDD[T], key func(T) K, pool *Pool) *RDD[T] {
	kvs := Map(r, func(v T) KV[K, T] { return KV[K, T]{key(v), v} })
	reduced := ReduceByKey(kvs, func(a, b T) T { return a }, pool)
	return Map(reduced, func(kv KV[K, T]) T { return kv.Val })
}

// Collect computes all partitions (in parallel on pool) and returns
// the concatenated elements.
func (r *RDD[T]) Collect(pool *Pool) []T {
	parts := make([][]T, r.numParts)
	pool.Run(r.numParts, func(p int) { parts[p] = r.partition(p) })
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
