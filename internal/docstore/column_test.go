package docstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestColumnMatchesFlat drives a column and a flat []Cell through the
// same appends — runs with and without gaps, of each kind — and
// gathers with lo on and beside chunk
// boundaries (re-sorts, deletes), then appends again. Every row must read
// back the same, and the presence bitmap must stay nil until the first
// gap and exist from then on.
func TestColumnMatchesFlat(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for trial := 0; trial < 24; trial++ {
		var (
			c   column
			s   slabs
			ref []Cell
		)
		gaps := trial%3 != 0 // a third of the columns stay dense
		typed := []func(i int) Cell{
			func(i int) Cell { return String(fmt.Sprintf("s%d", i%37)) },
			func(i int) Cell { return Float(float64(i) / 4) },
			func(i int) Cell { return Int64(int64(i) << 40) },
			func(i int) Cell { return Cell{kind: kindInt, num: uint64(i)} },
		}[trial%4]
		appendRows := func(n int) {
			afterGap := false
			for end := len(ref) + n; len(ref) < end; {
				if gaps && r.Intn(50) == 0 {
					ref = append(ref, Cell{}) // a gap: the row holds no value
					afterGap = true
					continue
				}
				v := typed(len(ref))
				c.set(len(ref), v, &s)
				ref = append(ref, v)
				if afterGap && c.present == nil {
					t.Fatalf("trial %d: row %d set past a gap, and the column has no bitmap", trial, len(ref)-1)
				}
			}
		}
		check := func(stage string) {
			t.Helper()
			for i := 0; i < len(ref)+2; i++ {
				want := Cell{}
				if i < len(ref) {
					want = ref[i]
				}
				if got := c.cell(i); got != want {
					t.Fatalf("trial %d, %s: row %d of %d reads %+v, want %+v", trial, stage, i, len(ref), got, want)
				}
			}
			if !gaps && c.present != nil {
				t.Fatalf("trial %d, %s: a column without a gap has a bitmap", trial, stage)
			}
		}
		appendRows(4000 + r.Intn(5000))
		check("appended")
		for _, lo := range []int{0, 511, 512, 513, 4095, 4096, 4097, len(ref) - 1, r.Intn(len(ref))} {
			if lo > len(ref) {
				continue
			}
			src := make([]int, 0, len(ref)-lo)
			for i := lo; i < len(ref); i++ {
				if r.Intn(4) != 0 { // a delete drops a quarter of the tail
					src = append(src, i)
				}
			}
			if r.Intn(2) == 0 { // a re-sort moves the rest
				r.Shuffle(len(src), func(i, j int) { src[i], src[j] = src[j], src[i] })
			}
			moved := make([]Cell, len(src))
			for i, s := range src {
				moved[i] = ref[s]
			}
			c.gather(lo, src, &s)
			ref = append(ref[:lo], moved...)
			check(fmt.Sprintf("gathered from %d", lo))
			appendRows(r.Intn(700))
			check(fmt.Sprintf("appended after the gather from %d", lo))
		}
	}
}

// TestCheckpointBesideWriters checkpoints a one-partition collection
// over and over while writers append out-of-order batches (concurrent
// InsertMany calls take the lock in the other order) of rows with gaps,
// delete id ranges, and prune by
// retention — so gathers cut the lanes at every depth while a snapshot
// shares their chunks. Under -race a snapshot that reads a row a writer
// rewrites fails; in any mode the reopened store must equal the live one.
func TestCheckpointBesideWriters(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Partitions: 1, SyncInterval: -1, CheckpointInterval: -1}
	db, err := OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("h")
	c.SetRetention("ts", time.Hour)
	now := time.Now()
	const writers, batches, size = 4, 40, 64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				docs := make([]Doc, size)
				for i := range docs {
					seq := (w*batches+b)*size + i
					age := time.Duration(seq%7) * 15 * time.Minute // 2 in 7 expire
					d := Doc{"ts": float64(now.Add(-age).Unix()), "w": w, "seq": seq}
					if seq%5 != 0 {
						d["tag"] = fmt.Sprintf("t%d", seq%3) // a gap every fifth row
					}
					docs[i] = d
				}
				c.InsertMany(docs)
				if b%8 == 7 {
					lo := (w*batches + b - 7) * size
					if _, err := c.deleteWhere([]Cond{cond("seq", "$gte", lo), cond("seq", "$lt", lo+size/2)}); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := c.PruneExpired(now); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := db.Checkpoint(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	close(done)
	bg.Wait()
	if err := db.Checkpoint(); err != nil { // a snapshot of the final state, then more log on top
		t.Fatal(err)
	}
	c.Insert(Doc{"ts": float64(now.Unix()), "w": 0, "seq": -1})
	want := findAll(t, c)
	if len(want) < 4096 {
		t.Fatalf("%d rows left: the lanes never filled chunk 0", len(want))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = OpenDB(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := findAll(t, db.Collection("h")); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store differs from the live one: %d rows, want %d", len(got), len(want))
	}
}
