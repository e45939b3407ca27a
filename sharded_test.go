// Tests for the deprecated sharded names: ShardedCorpus is an alias of
// Corpus, and a Snapshot pinned from it must stay consistent while the
// corpus is mutated, including under a concurrent Add/Remove hammer.
package treejoin_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

func mustSharded(t *testing.T, n int, ts []*treejoin.Tree) *treejoin.ShardedCorpus {
	t.Helper()
	sc, err := treejoin.NewSharded(n, ts)
	if err != nil {
		t.Fatalf("NewSharded(%d): %v", n, err)
	}
	return sc
}

// TestShardedViewIsolation: a Snapshot pinned before a mutation keeps
// answering from the pre-mutation state while the corpus itself moves on.
func TestShardedViewIsolation(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(24, 5)
	sc := mustSharded(t, 3, ts[:16])
	v := sc.Snapshot()

	want, _, err := v.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Add(ts[16:]...); err != nil {
		t.Fatal(err)
	}
	sc.Remove(0, 3)
	if v.Len() != 16 || v.Epoch() == sc.Epoch() {
		t.Fatalf("view moved: Len=%d Epoch=%d (corpus %d)", v.Len(), v.Epoch(), sc.Epoch())
	}
	got, _, err := v.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairsEqual(t, "pinned view", got, want)
}

// TestShardedConcurrentHammer races pinned-snapshot queries of every kind
// against a stream of Add/Remove batches; run with -race. Each query's
// results must be internally consistent with the snapshot it pinned.
func TestShardedConcurrentHammer(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(60, 23)
	sc := mustSharded(t, 4, ts[:30])
	q := ts[2]

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan error, 16)

	// Writer: adds and removes in waves, reusing the tail trees.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 60; i++ {
			ids, err := sc.Add(ts[30+rng.Intn(30)])
			if err != nil {
				fail <- fmt.Errorf("hammer add: %w", err)
				return
			}
			if rng.Intn(2) == 0 {
				sc.Remove(ids...)
			}
			sc.Remove(rng.Intn(90))
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := sc.Snapshot()
				n := v.Len()
				switch r % 4 {
				case 0:
					pairs, _, err := v.SelfJoin(ctx, 1)
					if err != nil {
						fail <- fmt.Errorf("hammer selfjoin: %w", err)
						return
					}
					for _, p := range pairs {
						if p.I < 0 || p.J >= n || p.I >= p.J {
							fail <- fmt.Errorf("hammer selfjoin: pair %+v outside view of %d", p, n)
							return
						}
					}
				case 1:
					ms, err := v.Search(ctx, q, 2)
					if err != nil {
						fail <- fmt.Errorf("hammer search: %w", err)
						return
					}
					for _, m := range ms {
						if m.Pos < 0 || m.Pos >= n {
							fail <- fmt.Errorf("hammer search: pos %d outside view of %d", m.Pos, n)
							return
						}
					}
				case 2:
					if _, err := v.KNN(ctx, q, 3); err != nil {
						fail <- fmt.Errorf("hammer knn: %w", err)
						return
					}
				case 3:
					for i := 0; i < n; i++ {
						if p, ok := v.PosOf(v.ID(i)); !ok || p != i {
							fail <- fmt.Errorf("hammer ids: ID/PosOf disagree at %d", i)
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	// The settled corpus still matches a fresh corpus over the same
	// survivors.
	final := mustCorpus(t, sc.Trees())
	want, _, err := final.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sc.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairsEqual(t, "post-hammer", got, want)
}
