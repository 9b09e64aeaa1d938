// Package lane holds a growing sequence of values in fixed chunks that
// are never copied as it grows: the storage under the store's columns
// and id column (internal/docstore) and under a broker partition's
// record headers (internal/broker).
//
// A Lane is addressed by row: row r lives at chunk r>>12, slot r&4095,
// and a chunk's length is how many rows it holds. An append writes past
// every row already stored and never moves one (chunk 0 starts at 512
// rows and doubles to 4 096, each doubling a copy to fresh memory), so
// a reader holding a Share of the lane sees the rows it captured however
// the lane grows afterwards. A lane has a row base: Release(n) lets go
// of the rows below n, dropping whole leading chunks to the garbage
// collector, while every later row keeps its number.
//
// A Lane allocates nothing of its own. Its chunks and its chunk list are
// carved from a Slab of the element type, which several lanes may share
// so that a chunk generation — every lane crossing the same row count —
// costs one allocation, not one per lane.
package lane

// Chunk sizes: chunk 0 starts at firstChunkRows and doubles up to
// ChunkRows, so a small lane stays small; later chunks are full.
const (
	chunkShift     = 12
	ChunkRows      = 1 << chunkShift // rows in every chunk but a young chunk 0
	chunkMask      = ChunkRows - 1
	firstChunkRows = 512
)

// Lane holds rows in fixed chunks: chunks[0] holds the rows of chunk
// number first, and the rows below base are released. The zero Lane is
// empty and ready to use.
type Lane[T any] struct {
	chunks [][]T
	first  int // the chunk number of chunks[0]
	base   int // the lowest row not released
}

// At reads row r, one not released and below Len. Its value receiver keeps
// a read a read: lockscope counts a call of another package's pointer
// method on a guarded field as a write.
//
//alarmvet:hotpath
func (l Lane[T]) At(r int) T { return l.chunks[r>>chunkShift-l.first][r&chunkMask] }

// Len returns one past the last row: every chunk but the last is full.
//
//alarmvet:hotpath
func (l Lane[T]) Len() int {
	last := len(l.chunks) - 1
	if last < 0 {
		return l.first << chunkShift
	}
	return (l.first+last)<<chunkShift + len(l.chunks[last])
}

// Chunks returns how many chunks the lane holds.
func (l Lane[T]) Chunks() int { return len(l.chunks) }

// Run returns the rows from r, one not released and below Len, to the
// end of its chunk: a reader walks a range a chunk at a time.
//
//alarmvet:hotpath
func (l Lane[T]) Run(r int) []T { return l.chunks[r>>chunkShift-l.first][r&chunkMask:] }

// Push appends a row, carving a chunk from s when the last is full.
//
//alarmvet:hotpath
func (l *Lane[T]) Push(v T, s *Slab[T]) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == cap(l.chunks[last]) {
		l.grow(s)
		last = len(l.chunks) - 1
	}
	l.chunks[last] = append(l.chunks[last], v)
}

// grow makes room for one more row: the first chunk, chunk 0 doubled,
// or a new full-size chunk, each carved from s.
func (l *Lane[T]) grow(s *Slab[T]) {
	switch {
	case len(l.chunks) == 0 && l.first == 0:
		l.chunks = append(s.carveList(), s.Carve(firstChunkRows))
	case len(l.chunks) == 1 && l.first == 0 && cap(l.chunks[0]) < ChunkRows:
		l.chunks[0] = append(s.Carve(2*cap(l.chunks[0])), l.chunks[0]...)
	default:
		l.chunks = append(l.chunks, s.Carve(ChunkRows))
	}
}

// Truncate drops the rows from n on, n at most Len and no released row.
// The chunk holding row n moves to fresh memory carved from s first — a
// Share may read it, and the appends that follow would overwrite rows
// it reads.
func (l *Lane[T]) Truncate(n int, s *Slab[T]) {
	k, off := n>>chunkShift-l.first, n&chunkMask
	if k >= len(l.chunks) {
		return
	}
	if off > 0 {
		l.chunks[k] = append(s.Carve(cap(l.chunks[k])), l.chunks[k][:off]...)
		k++
	}
	clear(l.chunks[k:])
	l.chunks = l.chunks[:k]
}

// Release lets go of the rows below n, n at most Len: it zeroes those
// left in the chunk it keeps, so a released row holds nothing alive, and
// drops every chunk wholly below n but the last, moving the chunk list
// down in place. It allocates nothing. A Share taken earlier keeps the
// dropped chunks but reads the released rows of the kept one as zero.
func (l *Lane[T]) Release(n int) {
	if n <= l.base || len(l.chunks) == 0 {
		l.base = max(l.base, n)
		return
	}
	k := min(n>>chunkShift-l.first, len(l.chunks)-1)
	if k > 0 {
		m := copy(l.chunks, l.chunks[k:])
		clear(l.chunks[m:])
		l.chunks = l.chunks[:m]
		l.first += k
		l.base = max(l.base, l.first<<chunkShift)
	}
	if l.base < n {
		ch := l.chunks[0]
		lo, hi := l.base-l.first<<chunkShift, min(n-l.first<<chunkShift, len(ch))
		clear(ch[lo:hi])
	}
	l.base = n
}

// Share returns a lane reading the same rows whose chunk list is its
// own: later appends, truncations and releases of l never change a row
// it reads.
func (l Lane[T]) Share() Lane[T] {
	return Lane[T]{chunks: append([][]T(nil), l.chunks...), first: l.first, base: l.base}
}

// listChunks is the capacity a lane's chunk list is carved with: eight
// chunks, 32 768 rows, before its first append copies it.
const listChunks = 8

// Slab is where lanes of one element type carve their chunks and chunk
// lists from. A block holds one chunk for every lane that carves from it
// (Lanes), so a chunk generation — every lane crossing the same row
// count — costs one allocation, not one per lane. A carve is a 3-index
// slice of the block's uncarved rest: its capacity ends where the next
// carve starts, so a lane's append can never write into a neighbour's
// chunk, and no memory is carved twice — a carve is fresh memory no
// shared lane reads. The zero Slab is ready to use.
type Slab[T any] struct {
	block []T   // [len, cap) is not carved yet
	lists [][]T // the same, for chunk lists
	// Lanes is how many lanes carve a chunk of each generation; 0 counts
	// as 1.
	Lanes int
}

// Carve returns an empty chunk of capacity n.
func (s *Slab[T]) Carve(n int) []T { return carveFrom(&s.block, n, s.Lanes) }

// carveList returns an empty chunk list of capacity listChunks.
func (s *Slab[T]) carveList() [][]T { return carveFrom(&s.lists, listChunks, s.Lanes) }

// carveFrom returns an empty slice of capacity n cut from the uncarved
// rest of *block, first starting a new block, n for every lane, when
// the rest is shorter than n.
func carveFrom[E any](block *[]E, n, lanes int) []E {
	l := len(*block)
	if cap(*block)-l < n {
		*block, l = make([]E, 0, n*max(lanes, 1)), 0
	}
	*block = (*block)[:l+n]
	return (*block)[l : l : l+n]
}
