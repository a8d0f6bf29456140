package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"batcher/internal/core"
	"batcher/internal/cost"
	"batcher/internal/entity"
	"batcher/internal/metrics"
	"batcher/internal/pipeline"
)

// outcome is one set-up plus one pipeline.Run: what the run produced,
// what it cost, and when its windows landed.
type outcome struct {
	setup, train, open time.Duration
	wall, cpu          time.Duration
	rep                *pipeline.Report
	system             *system
	blocker            *stampBlocker
	probe              *probe // nil for timed runs

	pairs  []entity.Pair  // candidates, in OnPair order
	preds  []entity.Label // their predictions
	pairAt []int64        // when each prediction reached OnPair

	windowMS []float64 // per-window latency, in milliseconds
	layers   *layers   // what a traced run measured, layer by layer
	inflight []int     // Progress.InFlight at each commit
	commitAt []int64   // when each window committed

	peakRSS      int64 // resident-set peak during the run
	allocBytes   uint64
	gcCycles     uint32
	journalBytes int64
	cacheBytes   int64
	cacheHits    int
	cacheMisses  int

	digest  string // candidate keys and predictions, in order
	ledger  string // every ledger field, per tier, at full precision
	f1      float64
	unknown int
}

// freshSetUp sets the system up in a cleared dir and times it. A resume
// workload first receives a copy of the cut journal, which is harness
// time and not timed.
func freshSetUp(ctx context.Context, w workload, fx *fixture, dir, cutDir string, pr *probe) (*system, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, fmt.Errorf("clearing %s: %w", dir, err)
	}
	if w.resume {
		if err := copyTree(cutDir, dir); err != nil {
			return nil, 0, fmt.Errorf("copying the cut journal: %w", err)
		}
	}
	start := time.Now()
	s, err := setUp(ctx, w, fx, dir, pr)
	return s, time.Since(start), err
}

// runOnce sets the system up in a fresh dir and runs it once. With
// traced set, the public seams are wrapped and recorded.
func runOnce(ctx context.Context, w workload, fx *fixture, dir, cutDir string, traced bool, sizeHint int, rss *rssSampler) (*outcome, error) {
	clk := &clock{}
	o := &outcome{}
	if traced {
		o.probe = newProbe(clk)
	}
	sys, setup, err := freshSetUp(ctx, w, fx, dir, cutDir, o.probe)
	if err != nil {
		return nil, err
	}
	o.system, o.setup, o.train, o.open = sys, setup, sys.train, sys.open

	o.blocker = &stampBlocker{inner: sys.cfg.Blocker, clk: clk, window: w.window, probe: o.probe,
		enter: make([]int64, 0, sizeHint)}
	if traced {
		o.blocker.leave = make([]int64, 0, sizeHint)
	}
	o.pairs = make([]entity.Pair, 0, sizeHint)
	o.preds = make([]entity.Label, 0, sizeHint)
	o.pairAt = make([]int64, 0, sizeHint)
	cfg := sys.cfg
	cfg.Blocker = o.blocker
	cfg.OnPair = func(p entity.Pair, l entity.Label) {
		o.pairs = append(o.pairs, p)
		o.preds = append(o.preds, l)
		o.pairAt = append(o.pairAt, clk.now())
	}
	committed := 0
	cfg.Progress = func(p pipeline.Progress) {
		if p.Windows > committed {
			committed = p.Windows
			o.commitAt = append(o.commitAt, clk.now())
			o.inflight = append(o.inflight, p.InFlight)
		}
	}

	// Every run starts from a collected heap returned to the OS, so its
	// resident-set peak is its own.
	debug.FreeOSMemory()
	rss.reset()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	clk.base = time.Now()
	rep, runErr := pipeline.Run(ctx, cfg, sys.client, fx.data.TableA, fx.data.TableB)
	o.wall = time.Since(clk.base)
	o.cpu = cpuTime() - cpu0
	o.peakRSS = rss.read()
	runtime.ReadMemStats(&after)
	if sys.cache != nil {
		o.cacheHits, o.cacheMisses = sys.cache.Stats()
	}
	if err := errors.Join(runErr, sys.close()); err != nil {
		return nil, fmt.Errorf("%s run: %w", w.name, err)
	}
	o.rep = rep
	o.allocBytes = after.TotalAlloc - before.TotalAlloc
	o.gcCycles = after.NumGC - before.NumGC
	o.journalBytes = treeBytes(filepath.Join(dir, "journal"))
	o.cacheBytes = treeBytes(filepath.Join(dir, "cache"))
	if err := o.score(w, fx); err != nil {
		return nil, err
	}
	return o, nil
}

// score derives the outputs the checks compare and the quality metrics.
func (o *outcome) score(w workload, fx *fixture) error {
	n := len(o.pairs)
	if n != o.rep.Candidates || n != len(o.blocker.enter) {
		return fmt.Errorf("%s: %d predictions for %d reported and %d blocked candidates",
			w.name, n, o.rep.Candidates, len(o.blocker.enter))
	}
	h := sha256.New()
	conf := &metrics.Confusion{}
	for i, p := range o.pairs {
		fmt.Fprintf(h, "%s\t%d\n", p.Key(), o.preds[i])
		gold, ok := fx.oracle.Lookup(p)
		if !ok {
			// Blocked candidates outside the generated pairs are
			// non-matches by construction.
			gold = entity.NonMatch
		}
		conf.Add(gold, o.preds[i])
		if o.preds[i] == entity.Unknown {
			o.unknown++
		}
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	o.ledger = ledgerString(&o.rep.Result.Ledger)
	o.f1 = conf.F1() // in points
	for _, win := range windows(n, w.window) {
		o.windowMS = append(o.windowMS, float64(o.pairAt[win.last]-o.blocker.enter[win.last])/1e6)
	}
	return nil
}

// indexRange is a span of candidate indices, both ends included.
type indexRange struct{ first, last int }

// windows splits n candidates the way the pipeline does: windows of
// size candidates, or a single window in collected mode (size 0).
func windows(n, size int) []indexRange {
	if size <= 0 {
		size = n
	}
	var out []indexRange
	for first := 0; first < n; first += size {
		out = append(out, indexRange{first, min(first+size, n) - 1})
	}
	return out
}

// release drops what only the checks and the trace analysis read, so
// kept outcomes do not inflate later runs' memory.
func (o *outcome) release() {
	o.pairs, o.preds, o.pairAt, o.blocker, o.probe, o.system = nil, nil, nil, nil, nil, nil
	o.rep.Matches = nil
	o.rep.Result = &core.Result{
		Ledger:       o.rep.Result.Ledger,
		DemosLabeled: o.rep.Result.DemosLabeled,
		TrimmedDemos: o.rep.Result.TrimmedDemos,
	}
}

// ledgerString renders every ledger field, dollars at full precision, so
// two ledgers compare equal only if they are bit-identical.
func ledgerString(l *cost.Ledger) string {
	usd := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "calls=%d in=%d out=%d api=%s labeled=%d",
		l.Calls(), l.InputTokens(), l.OutputTokens(), usd(l.API()), l.LabeledPairs())
	for _, t := range l.TierBreakdown() {
		fmt.Fprintf(&b, " | %s calls=%d in=%d out=%d usd=%s",
			t.Tier, t.Calls, t.InputTokens, t.OutputTokens, usd(t.Dollars))
	}
	return b.String()
}

// rate is the run's throughput in candidates per second.
func (o *outcome) rate() float64 { return float64(o.rep.Candidates) / o.wall.Seconds() }

// totalUSD is API, labeling and pre-filter training dollars.
func (o *outcome) totalUSD(w workload) float64 {
	return o.rep.Result.Ledger.Total() + trainUSD(w)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
