package core

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"batcher/internal/entity"
	"batcher/internal/feature"
)

// countingExtractor counts Extract calls; it does not implement
// feature.ProfiledExtractor, so every pair goes through Extract.
type countingExtractor struct {
	feature.Extractor
	calls atomic.Int64
}

func (c *countingExtractor) Extract(p entity.Pair) feature.Vector {
	c.calls.Add(1)
	return c.Extractor.Extract(p)
}

// A window that is its own demonstration pool extracts its features
// once, and plans exactly what a separately extracted copy of the same
// pool plans: batches, labeled pool indices and vote margins.
func TestPrepareSelfPoolExtractsOnce(t *testing.T) {
	questions, _ := testWorkload(t, "Beer", 48)
	copied := append([]entity.Pair(nil), questions...)
	for _, sel := range []SelectStrategy{CoveringSelection, TopKQuestion, VoteKSelection} {
		t.Run(sel.String(), func(t *testing.T) {
			prepare := func(pool []entity.Pair) (*Prepared, int64) {
				ex := &countingExtractor{Extractor: feature.NewLR()}
				f := NewFromConfig(newSimClient(questions, nil, 1), Config{
					Batching: DiversityBatching, Selection: sel, Extractor: ex, Seed: 1,
				})
				p, err := f.Prepare(context.Background(), questions, pool)
				if err != nil {
					t.Fatal(err)
				}
				return p, ex.calls.Load()
			}
			aliased, aliasedCalls := prepare(questions)
			separate, separateCalls := prepare(copied)
			if n := int64(len(questions)); aliasedCalls != n || separateCalls != 2*n {
				t.Errorf("Extract calls: aliased %d, copied %d; want %d and %d",
					aliasedCalls, separateCalls, n, 2*n)
			}
			if !reflect.DeepEqual(aliased.Batches(), separate.Batches()) {
				t.Errorf("batches differ:\naliased %v\ncopied  %v", aliased.Batches(), separate.Batches())
			}
			if !reflect.DeepEqual(aliased.LabeledPool(), separate.LabeledPool()) {
				t.Errorf("labeled pool differs: aliased %v, copied %v", aliased.LabeledPool(), separate.LabeledPool())
			}
			if !reflect.DeepEqual(aliased.sel, separate.sel) {
				t.Errorf("selection differs:\naliased %+v\ncopied  %+v", aliased.sel, separate.sel)
			}
			if len(aliased.sel.margins) == 0 {
				t.Error("no vote margins computed")
			}
		})
	}
}
