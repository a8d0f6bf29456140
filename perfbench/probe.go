package main

import (
	"context"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"batcher/internal/blocking"
	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/llm"
	"batcher/internal/profile"
)

// clock stamps events as nanoseconds since the start of one pipeline.Run.
type clock struct{ base time.Time }

func (c *clock) now() int64 { return int64(time.Since(c.base)) }

// stampBlocker wraps the run's blocker. It stamps the moment each
// candidate leaves the blocker, which the window latency needs, in both
// the timed and the traced runs. When traced it also stamps when the
// consumer hands control back, which splits the iterator's life into
// busy time (generating candidates) and stall time (inside yield: profile
// warming and backpressure), and registers each candidate's window with
// the probe.
type stampBlocker struct {
	inner blocking.Blocker
	clk   *clock
	// window is the pipeline window size; 0 puts every candidate in
	// window 0 (collected mode).
	window int
	probe  *probe // nil in timed runs
	// Written only by the goroutine driving the iterator; read after
	// pipeline.Run returns.
	enter, leave []int64
	start, end   int64
}

// Block implements blocking.Blocker; the pipeline only streams.
func (b *stampBlocker) Block(tableA, tableB []entity.Record) []entity.Pair {
	return b.inner.Block(tableA, tableB)
}

// BlockStream implements blocking.StreamBlocker over the inner blocker's
// stream, so the pipeline keeps its incremental path.
func (b *stampBlocker) BlockStream(ctx context.Context, tableA, tableB []entity.Record) iter.Seq2[entity.Pair, error] {
	inner := blocking.Stream(ctx, b.inner, tableA, tableB)
	return func(yield func(entity.Pair, error) bool) {
		b.start = b.clk.now()
		defer func() { b.end = b.clk.now() }()
		for p, err := range inner {
			if err == nil {
				b.enter = append(b.enter, b.clk.now())
				if b.probe != nil {
					b.probe.register(p, windowOf(len(b.enter)-1, b.window))
				}
			}
			ok := yield(p, err)
			if b.probe != nil && err == nil {
				b.leave = append(b.leave, b.clk.now())
			}
			if !ok {
				return
			}
		}
	}
}

// windowOf is the pipeline window holding candidate i.
func windowOf(i, window int) int {
	if window <= 0 {
		return 0
	}
	return i / window
}

// pairID identifies a candidate by its record IDs without allocating.
type pairID struct{ a, b string }

// featAgg is one window's feature extraction, aggregated.
type featAgg struct {
	calls, profiled int
	busy            int64
	first, last     int64
}

// callRec is one LLM call as the matcher saw it.
type callRec struct {
	id         int64
	start, end int64
	prompt     string
	completion string
	tier       llm.Tier
	failed     bool
}

// backendRec is one call inside the simulated backend.
type backendRec struct {
	parent     int64
	start, end int64
}

// probe is the traced run's in-memory recorder. The wrappers below feed
// it from the public seams the pipeline already takes; spans are built
// from it after the run and written out once.
type probe struct {
	clk *clock
	ids atomic.Int64

	mu       sync.Mutex
	windowBy map[pairID]int
	feat     []featAgg
	unplaced int // extractions of pairs the blocker never yielded
	calls    []callRec
	backend  []backendRec
}

func newProbe(clk *clock) *probe {
	return &probe{clk: clk, windowBy: make(map[pairID]int)}
}

func (p *probe) register(pair entity.Pair, w int) {
	p.mu.Lock()
	if _, ok := p.windowBy[pairID{pair.A.ID, pair.B.ID}]; !ok {
		p.windowBy[pairID{pair.A.ID, pair.B.ID}] = w
	}
	p.mu.Unlock()
}

func (p *probe) extracted(pair entity.Pair, start, end int64, profiled bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.windowBy[pairID{pair.A.ID, pair.B.ID}]
	if !ok {
		p.unplaced++
		return
	}
	for len(p.feat) <= w {
		p.feat = append(p.feat, featAgg{first: -1})
	}
	a := &p.feat[w]
	a.calls++
	if profiled {
		a.profiled++
	}
	a.busy += end - start
	if a.first < 0 || start < a.first {
		a.first = start
	}
	if end > a.last {
		a.last = end
	}
}

// tracedExtractor wraps the matcher's feature extractor. It forwards the
// profiled fast path too, so feature.NewProfiles and ExtractAllWith take
// exactly the branch they take on the unwrapped extractor.
type tracedExtractor struct {
	inner feature.ProfiledExtractor
	probe *probe
}

// Extract implements feature.Extractor.
func (e *tracedExtractor) Extract(pair entity.Pair) feature.Vector {
	start := e.probe.clk.now()
	v := e.inner.Extract(pair)
	e.probe.extracted(pair, start, e.probe.clk.now(), false)
	return v
}

// Dim implements feature.Extractor.
func (e *tracedExtractor) Dim(m int) int { return e.inner.Dim(m) }

// Name implements feature.Extractor.
func (e *tracedExtractor) Name() string { return e.inner.Name() }

// ProfileOpts implements feature.ProfiledExtractor.
func (e *tracedExtractor) ProfileOpts() profile.EntityOpts { return e.inner.ProfileOpts() }

// ExtractProfiled implements feature.ProfiledExtractor.
func (e *tracedExtractor) ExtractProfiled(pair entity.Pair, pa, pb *profile.Entity) feature.Vector {
	start := e.probe.clk.now()
	v := e.inner.ExtractProfiled(pair, pa, pb)
	e.probe.extracted(pair, start, e.probe.clk.now(), true)
	return v
}

// callKey carries the enclosing LLM call's span ID down the client stack.
type callKey struct{}

// tracedClient wraps the whole client stack: its spans are the LLM
// calls as the matcher waits on them.
type tracedClient struct {
	inner llm.Client
	probe *probe
}

// Complete implements llm.Client.
func (c *tracedClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	id := c.probe.ids.Add(1)
	start := c.probe.clk.now()
	resp, err := c.inner.Complete(context.WithValue(ctx, callKey{}, id), req)
	rec := callRec{
		id: id, start: start, end: c.probe.clk.now(),
		prompt: req.Prompt, completion: resp.Completion, tier: req.Tier, failed: err != nil,
	}
	c.probe.mu.Lock()
	c.probe.calls = append(c.probe.calls, rec)
	c.probe.mu.Unlock()
	return resp, err
}

// tracedBackend wraps one llm.Simulated, so the stub backend's own cost
// stays apart from the system's.
type tracedBackend struct {
	inner llm.Client
	probe *probe
}

// Complete implements llm.Client.
func (c *tracedBackend) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	start := c.probe.clk.now()
	resp, err := c.inner.Complete(ctx, req)
	parent, _ := ctx.Value(callKey{}).(int64)
	rec := backendRec{parent: parent, start: start, end: c.probe.clk.now()}
	c.probe.mu.Lock()
	c.probe.backend = append(c.probe.backend, rec)
	c.probe.mu.Unlock()
	return resp, err
}
