// Command perfbench is the repository's end-to-end benchmark: it times
// whole pipeline.Runs of the BATCHER resolver over synthetic 8000x8000
// tables, checks their outputs, and prints one JSON result line.
//
// Run it from the root of a checkout through its build script:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The load is a closed loop: one caller, one pipeline.Run at a time.
// With --trace 0 the result holds the end-to-end metrics of untraced
// runs. With --trace 1 traced and untraced runs alternate; the traced
// ones wrap the public seams the pipeline takes (the blocker, the
// matcher's feature extractor, and the LLM client both outside the
// whole stack and around each simulated backend), write a span trace
// under .bench_build/perfbench, print a per-layer table read back from
// it, and report the per-layer metrics. README.md lists the workloads
// and which end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) put(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// Before its timed runs, a run sets the system up at least setupSamples
// times and for at least setupTime; the timed runs set it up once each
// as well, and setup_s is the median of all of them. A fresh journal and
// cache open in about 0.1 ms with a wide spread, so cheap set-ups are
// sampled many times.
const (
	setupSamples = 48
	setupTime    = time.Second
)

func main() { os.Exit(run()) }

// run parses the flags, benchmarks the workload and prints the result.
// It returns the exit code: 2 for bad flags, 1 for a failed run or a
// failed output check.
func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed for the generated tables and the matcher")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced runs")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds < 1) {
		err = fmt.Errorf("bad flags: --trace %d --seconds %d", *trace, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// An interrupted benchmark cancels its run, so it still removes its
	// scratch run stores on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := bench(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs one workload: harness preparation, repeated set-ups, timed
// (and with traced set, traced) runs for at least d, then the checks.
func bench(ctx context.Context, w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	out := filepath.Join(".bench_build", "perfbench")
	work := filepath.Join(out, fmt.Sprintf("work-%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(work)
	fmt.Fprintf(os.Stderr, "host: %s\n", hostFacts())
	rss := startRSS()
	defer rss.finish()

	// Harness time: data generation, the reference run and the resume
	// workload's journal prefix. None of it is set-up.
	start := time.Now()
	fx, err := newFixture(seed)
	if err != nil {
		return nil, err
	}
	datagen := time.Since(start)
	start = time.Now()
	var ref *outcome
	if w.window > 0 {
		if ref, err = runOnce(ctx, reference, fx, filepath.Join(work, "reference"), "", false, 0, rss); err != nil {
			return nil, err
		}
		ref.release()
	}
	cutDir := filepath.Join(work, "cut")
	if w.resume {
		if err := cutJournal(ctx, w, fx, cutDir, ref.rep.Windows/3); err != nil {
			return nil, err
		}
	}
	prep := time.Since(start)
	fmt.Fprintf(os.Stderr, "harness: datagen %.3fs, prep %.3fs\n", datagen.Seconds(), prep.Seconds())

	var setups []setupTimes
	for start := time.Now(); len(setups) < setupSamples || time.Since(start) < setupTime; {
		s, err := setupOnly(ctx, w, fx, filepath.Join(work, "setup"), cutDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	var timed, tracedRuns []*outcome
	hint := 0
	start = time.Now()
	for i := 0; ; i++ {
		tr := traced && i%2 == 1
		o, err := runOnce(ctx, w, fx, filepath.Join(work, "run"), cutDir, tr, hint, rss)
		if err != nil {
			return nil, err
		}
		hint = o.rep.Candidates
		if tr {
			if o.layers, err = analyze(ctx, w, o); err != nil {
				return nil, err
			}
			tracedRuns = append(tracedRuns, o)
		} else {
			timed = append(timed, o)
			setups = append(setups, setupTimes{total: o.setup, train: o.train, open: o.open})
		}
		o.release()
		enough := len(timed) >= 2 && (!traced || len(tracedRuns) >= 2)
		if enough && time.Since(start) >= d {
			break
		}
	}

	var problems []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	first := timed[0]
	for i, o := range slices.Concat(timed[1:], tracedRuns) {
		check(o.digest == first.digest, "run %d: prediction digest %s differs from the first run's %s", i+1, o.digest, first.digest)
		check(o.ledger == first.ledger, "run %d: ledger %q differs from the first run's %q", i+1, o.ledger, first.ledger)
		check(o.rep.Windows == first.rep.Windows && o.rep.Replayed == first.rep.Replayed &&
			o.rep.AutoResolved == first.rep.AutoResolved,
			"run %d: windows/replayed/auto-resolved %d/%d/%d differ from the first run's %d/%d/%d", i+1,
			o.rep.Windows, o.rep.Replayed, o.rep.AutoResolved, first.rep.Windows, first.rep.Replayed, first.rep.AutoResolved)
	}
	if ref != nil {
		check(first.digest == ref.digest, "prediction digest %s differs from the reference run's %s", first.digest, ref.digest)
		check(first.ledger == ref.ledger, "ledger %q differs from the reference run's %q", first.ledger, ref.ledger)
	}

	res := &result{Metrics: map[string]metric{}}
	for _, o := range slices.Concat(timed, tracedRuns) {
		res.Attempted += o.rep.Candidates
		res.Failed += o.unknown
	}
	if traced {
		layerMetrics(w, res, timed, tracedRuns, setups, out, datagen, prep, check)
	} else {
		endToEnd(w, res, timed, setups)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	res.Correct = len(problems) == 0
	return res, nil
}

// setupTimes is one set-up: in total and its timed parts.
type setupTimes struct{ total, train, open time.Duration }

// setupOnly sets the system up in a fresh dir and tears it down again.
func setupOnly(ctx context.Context, w workload, fx *fixture, dir, cutDir string) (setupTimes, error) {
	s, total, err := freshSetUp(ctx, w, fx, dir, cutDir, nil)
	if err != nil {
		return setupTimes{}, err
	}
	return setupTimes{total: total, train: s.train, open: s.open}, s.close()
}

// endToEnd fills the metrics a user of the system sees, from the
// untraced runs.
func endToEnd(w workload, res *result, runs []*outcome, setups []setupTimes) {
	o := runs[0]
	total := o.totalUSD(w)
	res.put("setup_s", "s", median(collect(setups, func(s setupTimes) float64 { return s.total.Seconds() })))
	res.put("candidates_per_s", "1/s", median(collect(runs, (*outcome).rate)))
	res.put("window_latency_p50_ms", "ms", median(collect(runs, func(o *outcome) float64 { return quantile(o.windowMS, 0.5) })))
	res.put("window_latency_p90_ms", "ms", median(collect(runs, func(o *outcome) float64 { return quantile(o.windowMS, 0.9) })))
	res.put("cpu_s", "s", median(collect(runs, func(o *outcome) float64 { return o.cpu.Seconds() })))
	res.put("peak_rss_mb", "MB", median(collect(runs, func(o *outcome) float64 { return float64(o.peakRSS) / (1 << 20) })))
	res.put("total_usd", "usd", total)
	res.put("f1", "pts", o.f1)
	res.put("usd_per_f1pt", "usd/pt", total/o.f1)
	res.put("llm_calls", "count", float64(o.rep.Result.Ledger.Calls()))
	res.put("answered_frac", "frac", 1-float64(o.unknown)/float64(o.rep.Candidates))
	walls := collect(runs, func(o *outcome) float64 { return o.wall.Seconds() })
	fmt.Fprintf(os.Stderr, "%s: %d runs (wall quartiles %.3f %.3f %.3f s), %d candidates, %d windows, ledger %s\n",
		w.name, len(runs), quantile(walls, 0.25), quantile(walls, 0.5), quantile(walls, 0.75),
		o.rep.Candidates, o.rep.Windows, o.ledger)
}

// layerMetrics fills the per-layer metrics from the traced runs, writes
// the last traced run's spans and prints the layer table read back from
// the file. Timings are medians over the traced runs; the pipeline's
// allocation, GC and commit figures come from the untraced runs beside
// them, so tracing does not inflate them.
func layerMetrics(w workload, res *result, timed, traced []*outcome, setups []setupTimes,
	out string, datagen, prep time.Duration, check func(bool, string, ...any)) {
	var ls []*layers
	for _, o := range traced {
		ls = append(ls, o.layers)
	}
	for i, l := range ls {
		check(l.exact() == ls[0].exact(), "traced run %d: counters %q differ from the first traced run's %q", i, l.exact(), ls[0].exact())
		check(l.unlinked == 0, "traced run %d: %d LLM calls not linked to a window", i, l.unlinked)
	}
	secs := func(f func(l *layers) float64) float64 { return median(collect(ls, f)) }
	l, o := ls[0], traced[0]
	ledger := &o.rep.Result.Ledger
	if !w.journal && !w.resume {
		// Without a cache or a journal every billed call passed the
		// traced client.
		check(l.llmCalls == ledger.Calls(), "traced client saw %d LLM calls, the ledger billed %d", l.llmCalls, ledger.Calls())
	}
	path := filepath.Join(out, fmt.Sprintf("trace-%s.jsonl", w.name))
	if err := writeTrace(path, ls[len(ls)-1].spans); err != nil {
		check(false, "%v", err)
	} else if spans, err := readTrace(path); err != nil {
		check(false, "%v", err)
	} else {
		fmt.Fprintf(os.Stderr, "trace: %s (%d spans)\n", path, len(spans))
		printLayerTable(os.Stderr, spans)
	}

	res.put("blocking.busy_s", "s", secs(func(l *layers) float64 { return float64(l.blockBusy) / 1e9 }))
	res.put("blocking.stall_s", "s", secs(func(l *layers) float64 { return float64(l.blockStall) / 1e9 }))
	res.put("blocking.candidates", "count", float64(o.rep.Candidates))
	res.put("feature.calls", "count", float64(l.featCalls))
	res.put("feature.busy_s", "s", secs(func(l *layers) float64 { return float64(l.featBusy) / 1e9 }))
	res.put("feature.profiled_frac", "frac", float64(l.featProf)/float64(max(l.featCalls, 1)))
	res.put("core.prepare_s", "s", secs(func(l *layers) float64 { return l.prepare.Seconds() }))
	res.put("core.demos_labeled", "count", float64(o.rep.Result.DemosLabeled))
	res.put("prompt.tokens_per_call", "tokens", float64(ledger.InputTokens())/float64(max(ledger.Calls(), 1)))
	res.put("prompt.questions_per_call", "count", float64(l.questions)/float64(max(l.llmCalls, 1)))
	res.put("prompt.trimmed_demos", "count", float64(o.rep.Result.TrimmedDemos))
	res.put("prompt.parse_s", "s", secs(func(l *layers) float64 { return l.parse.Seconds() }))
	res.put("tokens.count_s", "s", secs(func(l *layers) float64 { return l.count.Seconds() }))
	res.put("llm.calls", "count", float64(l.llmCalls))
	res.put("llm.errors", "count", float64(l.llmErrors))
	res.put("llm.cheap_calls", "count", float64(l.cheap))
	res.put("llm.expensive_calls", "count", float64(l.expensive))
	res.put("llm.wait_s", "s", secs(func(l *layers) float64 { return float64(l.llmWait) / 1e9 }))
	res.put("llm.call_p50_ms", "ms", secs(func(l *layers) float64 { return quantile(l.callMS, 0.5) }))
	res.put("llm.call_p99_ms", "ms", secs(func(l *layers) float64 { return quantile(l.callMS, 0.99) }))
	res.put("llm.backend_busy_s", "s", secs(func(l *layers) float64 { return float64(l.backendBusy) / 1e9 }))
	res.put("cascade.auto_resolved", "count", float64(o.rep.AutoResolved))
	res.put("cascade.train_s", "s", median(collect(setups, func(s setupTimes) float64 { return s.train.Seconds() })))
	res.put("cascade.route_s", "s", secs(func(l *layers) float64 { return l.route.Seconds() }))
	res.put("cost.api_usd", "usd", ledger.API())
	res.put("cost.label_usd", "usd", ledger.Labeling())
	res.put("cost.train_usd", "usd", trainUSD(w))
	res.put("runstore.open_s", "s", median(collect(setups, func(s setupTimes) float64 { return s.open.Seconds() })))
	res.put("runstore.journal_bytes", "bytes", float64(o.journalBytes))
	res.put("runstore.cache_bytes", "bytes", float64(o.cacheBytes))
	res.put("runstore.cache_hits", "count", float64(o.cacheHits))
	res.put("runstore.cache_misses", "count", float64(o.cacheMisses))
	res.put("runstore.replayed", "count", float64(o.rep.Replayed))
	res.put("pipeline.windows", "count", float64(o.rep.Windows))
	res.put("pipeline.peak_buffered", "count", float64(o.rep.PeakBuffered))
	res.put("pipeline.inflight_mean", "count", median(collect(timed, func(o *outcome) float64 {
		return mean(collect(o.inflight, func(n int) float64 { return float64(n) }))
	})))
	res.put("pipeline.commit_gap_p50_ms", "ms", median(collect(timed, func(o *outcome) float64 {
		var gaps []float64
		for i := 1; i < len(o.commitAt); i++ {
			gaps = append(gaps, float64(o.commitAt[i]-o.commitAt[i-1])/1e6)
		}
		return quantile(gaps, 0.5)
	})))
	res.put("pipeline.alloc_mb", "MB", median(collect(timed, func(o *outcome) float64 { return float64(o.allocBytes) / (1 << 20) })))
	res.put("pipeline.gc_cycles", "count", median(collect(timed, func(o *outcome) float64 { return float64(o.gcCycles) })))
	res.put("trace.overhead_frac", "frac", 1-median(collect(traced, (*outcome).rate))/median(collect(timed, (*outcome).rate)))
	res.put("harness.datagen_s", "s", datagen.Seconds())
	res.put("harness.prep_s", "s", prep.Seconds())
}
