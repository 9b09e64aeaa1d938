package lane

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// laneRows returns every row a lane holds, checking its layout on the
// way: every chunk but the last is full, chunk 0 holds at most ChunkRows
// and a later chunk exactly ChunkRows, and len counts every row.
func laneRows(t *testing.T, l *Lane[int]) []int {
	t.Helper()
	var out []int
	for k, ch := range l.chunks {
		switch {
		case k == 0 && cap(ch) > ChunkRows, k > 0 && cap(ch) != ChunkRows:
			t.Fatalf("chunk %d has capacity %d", k, cap(ch))
		case k < len(l.chunks)-1 && len(ch) != cap(ch):
			t.Fatalf("chunk %d of %d holds %d of %d rows", k, len(l.chunks), len(ch), cap(ch))
		}
		out = append(out, ch...)
	}
	if l.Len() != len(out) {
		t.Fatalf("len() = %d, the chunks hold %d rows", l.Len(), len(out))
	}
	for r := range out {
		if got := l.At(r); got != out[r] {
			t.Fatalf("at(%d) = %d, chunk holds %d", r, got, out[r])
		}
	}
	return out
}

// TestLaneMatchesFlat: a lane holds what a flat slice does at the sizes
// either side of chunk 0's doublings and of the full chunks; truncated on
// and beside a chunk boundary and refilled, it holds the flat slice's
// prefix plus the refill, while a copy shared before the truncation
// still reads every row it captured.
func TestLaneMatchesFlat(t *testing.T) {
	sizes := []int{0, 1, 511, 512, 513, 1024, 4095, 4096, 4097, 8192, 8193}
	for _, n := range sizes {
		for _, lo := range append(sizes, n/2, n-1) {
			if lo < 0 || lo > n {
				continue
			}
			var (
				l Lane[int]
				s Slab[int]
			)
			flat := make([]int, n)
			for i := range flat {
				flat[i] = i
				l.Push(i, &s)
			}
			if got := laneRows(t, &l); !slices.Equal(got, flat) {
				t.Fatalf("%d rows pushed: lane holds %d", n, len(got))
			}
			if n > 0 && cap(l.chunks) < 8 {
				t.Fatalf("%d rows: chunk list capacity %d, want at least 8", n, cap(l.chunks))
			}
			shared := l.Share()
			l.Truncate(lo, &s)
			want := append([]int(nil), flat[:lo]...)
			for i := 0; i < 600; i++ {
				l.Push(-1-i, &s)
				want = append(want, -1-i)
			}
			if got := laneRows(t, &l); !slices.Equal(got, want) {
				t.Fatalf("%d rows truncated to %d and refilled: lane diverges from the flat slice", n, lo)
			}
			if got := laneRows(t, &shared); !slices.Equal(got, flat) {
				t.Fatalf("%d rows truncated to %d: the shared copy changed", n, lo)
			}
		}
	}
}

// TestLanesShareSlab drives several lanes carving from one slab — sized
// for fewer lanes than carve from it, so generations of different sizes
// share blocks and blocks run out mid-generation — through interleaved
// pushes (chunk 0's doublings among them), truncations on and beside
// chunk boundaries, and shares. Every lane must read back as its flat
// model after every step: a carve that overlapped a neighbour's chunk,
// or an append that crossed into one, shows as another lane's rows
// changing. And every shared view must still read what it captured
// after the pushes and truncations that follow it.
func TestLanesShareSlab(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	const lanes = 5
	type view struct {
		l    Lane[int]
		rows []int
	}
	for trial := 0; trial < 8; trial++ {
		s := Slab[int]{Lanes: 1 + trial%4}
		var (
			ls    [lanes]Lane[int]
			model [lanes][]int
			views []view
		)
		check := func(stage string) {
			t.Helper()
			for i := range ls {
				if got := laneRows(t, &ls[i]); !slices.Equal(got, model[i]) {
					t.Fatalf("trial %d, %s: lane %d holds %d rows that differ from its %d-row model", trial, stage, i, len(got), len(model[i]))
				}
			}
			for j := range views {
				if got := laneRows(t, &views[j].l); !slices.Equal(got, views[j].rows) {
					t.Fatalf("trial %d, %s: shared view %d changed", trial, stage, j)
				}
			}
		}
		next := 0
		for step := 0; step < 400; step++ {
			i := r.Intn(lanes)
			switch op := r.Intn(20); {
			case op == 0 && len(model[i]) > 0:
				cut := []int{0, 511, 512, 513, 4095, 4096, 4097, r.Intn(len(model[i]) + 1)}[r.Intn(8)]
				if cut > len(model[i]) {
					continue
				}
				ls[i].Truncate(cut, &s)
				model[i] = model[i][:cut:cut]
			case op == 1:
				views = append(views, view{ls[i].Share(), slices.Clone(model[i])})
			default:
				// Runs long enough to cross chunk 0's doublings and the
				// full chunks, at different rates per lane.
				for n := r.Intn(600); n > 0; n-- {
					next++
					ls[i].Push(next, &s)
					model[i] = append(model[i], next)
				}
			}
			if step%20 == 0 {
				check(fmt.Sprintf("step %d", step))
			}
		}
		check("the end")
	}
}

// TestLaneReleaseMatchesFlat: a lane released at points on and beside
// chunk boundaries, between runs of pushes, reads every row at or above
// its base as a flat slice does — through At and a walk of Runs — keeps its
// length, holds no chunk wholly below the base but the last, reads its
// released rows in the kept chunk as zero, and allocates nothing to
// release. A truncation above the base and a refill still match.
func TestLaneReleaseMatchesFlat(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 20; trial++ {
		var (
			l    Lane[int]
			s    Slab[int]
			flat []int
		)
		for step := 0; step < 60; step++ {
			switch op := r.Intn(6); {
			case op == 0:
				n := []int{l.base, l.Len(), l.base + 1, l.base + ChunkRows, (l.Len() / ChunkRows) * ChunkRows,
					l.base + r.Intn(l.Len()-l.base+1)}[r.Intn(6)]
				if n < l.base || n > l.Len() {
					continue
				}
				if allocs := testing.AllocsPerRun(1, func() { l.Release(n) }); allocs != 0 {
					t.Fatalf("trial %d: Release(%d) allocated %v objects", trial, n, allocs)
				}
			case op == 1 && l.Len() > l.base:
				n := l.base + r.Intn(l.Len()-l.base+1)
				l.Truncate(n, &s)
				flat = flat[:n]
			default:
				for n := r.Intn(3000); n > 0; n-- {
					l.Push(len(flat), &s)
					flat = append(flat, len(flat))
				}
			}
			if l.Len() != len(flat) {
				t.Fatalf("trial %d, step %d: Len %d, flat %d", trial, step, l.Len(), len(flat))
			}
			if lo := l.base; lo < l.Len() {
				if lo>>chunkShift != l.first && l.Chunks() > 1 {
					t.Fatalf("trial %d, step %d: base %d, first chunk %d", trial, step, lo, l.first)
				}
				for _, c := range l.chunks[0][:lo-l.first<<chunkShift] {
					if c != 0 {
						t.Fatalf("trial %d, step %d: a released row reads %d", trial, step, c)
					}
				}
			}
			for row := l.base; row < l.Len(); row++ {
				if got := l.At(row); got != flat[row] {
					t.Fatalf("trial %d, step %d: At(%d) = %d, want %d", trial, step, row, got, flat[row])
				}
			}
			var walked []int
			for row := l.base; row < l.Len(); {
				run := l.Run(row)
				walked = append(walked, run...)
				row += len(run)
			}
			if !slices.Equal(walked, flat[l.base:]) {
				t.Fatalf("trial %d, step %d: the runs from %d diverge from the flat slice", trial, step, l.base)
			}
		}
	}
}
