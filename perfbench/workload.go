package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"batcher/internal/blocking"
	"batcher/internal/cascade"
	"batcher/internal/core"
	"batcher/internal/cost"
	"batcher/internal/datagen"
	"batcher/internal/entity"
	"batcher/internal/feature"
	"batcher/internal/llm"
	"batcher/internal/pipeline"
	"batcher/internal/runstore"
)

// Shared shape of every workload.
const (
	rows        = 8000 // records per table
	trainPairs  = 500  // labeled pairs the cascade pre-filter trains on
	parallelism = 8    // Matcher.Parallelism
	tauLo       = 0.05
	tauHi       = 0.95
	escalateAt  = 0.2 // cascade escalation margin
)

// workload is one benchmark configuration over the shared tables.
type workload struct {
	name     string
	window   int           // pipeline.Config.StreamWindow; 0 is collected mode
	inflight int           // pipeline.Config.InFlightWindows
	latency  time.Duration // fixed latency of every LLM call
	cascade  bool          // pre-filter plus cheap and expensive tiers
	journal  bool          // journal and disk cache in fresh directories
	resume   bool          // resume from this run's journal cut after a third of its windows
}

var workloads = []workload{
	{name: "cpu-collected-cascade", cascade: true},
	{name: "llm-wait-journaled", window: 512, inflight: 4, latency: 50 * time.Millisecond, journal: true},
	{name: "resume-sequential", window: 512, inflight: 1, resume: true},
}

// reference is the windowed configuration both windowed workloads must
// reproduce byte for byte: one window in flight, no latency, no journal.
var reference = workload{name: "reference", window: 512, inflight: 1}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// fixture is the harness's input for one seed: the generated tables,
// the gold labels the simulated LLM and the F1 score read, and the
// labeled sample the cascade trains on.
type fixture struct {
	seed   int64
	data   *entity.Dataset
	oracle llm.MapOracle
	train  []entity.Pair
}

// benchSpec is eval's pipebench schema (internal/eval/pipebench.go):
// rows records per side, a 600-word title vocabulary so token blocking
// yields O(rows) candidates.
func benchSpec() datagen.CustomSpec {
	vocab := make([]string, 600)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("word%03d", i)
	}
	maker := make([]string, 40)
	for i := range maker {
		maker[i] = fmt.Sprintf("maker%02d", i)
	}
	return datagen.CustomSpec{
		Name:   "pipebench",
		Domain: "stress",
		Attrs: []datagen.AttrSpec{
			{Name: "title", Vocab: vocab, Tokens: 4},
			{Name: "maker", Vocab: maker, Tokens: 1, KeepOnHardNeg: true},
			{Name: "year", Numeric: true, Min: 1990, Max: 2024},
		},
		NumPairs:   rows,
		NumMatches: rows / 4,
	}
}

func newFixture(seed int64) (*fixture, error) {
	d, err := datagen.GenerateCustom(benchSpec(), seed)
	if err != nil {
		return nil, fmt.Errorf("generating tables: %w", err)
	}
	// Spread the training sample evenly over the split so both classes
	// are present, as eval's cascade sweep does.
	split := entity.SplitPairs(d.Pairs).Train
	stride := max(len(split)/trainPairs, 1)
	var train []entity.Pair
	for i := 0; i < len(split) && len(train) < trainPairs; i += stride {
		train = append(train, split[i])
	}
	return &fixture{seed: seed, data: d, oracle: llm.BuildOracle(d.Pairs), train: train}, nil
}

// system is one set-up instance of the resolver under test.
type system struct {
	cfg     pipeline.Config
	client  llm.Client
	journal *runstore.Journal
	cache   *runstore.Cache
	// train and open time the set-up's parts: cascade.Train, and
	// runstore.OpenJournal with OpenCache.
	train, open time.Duration
}

// setUp builds the system for one run: the client stack, the trained
// pre-filter and the run store under dir. With a probe the stack's
// public seams are wrapped for tracing.
func setUp(ctx context.Context, w workload, fx *fixture, dir string, pr *probe) (*system, error) {
	backend := func() llm.Client {
		var c llm.Client = llm.NewSimulated(fx.oracle, fx.seed)
		if pr != nil {
			c = &tracedBackend{inner: c, probe: pr}
		}
		return c
	}
	s := &system{cfg: pipeline.Config{
		Blocker:         &blocking.TokenBlocker{Attr: "title", MinShared: 2},
		Matcher:         core.Config{Seed: fx.seed, Parallelism: parallelism},
		StreamWindow:    w.window,
		InFlightWindows: w.inflight,
	}}
	var client llm.Client
	if w.cascade {
		client = llm.NewTiered(backend(), backend())
		start := time.Now()
		pf, err := cascade.Train(fx.train, cascade.Config{TauLo: tauLo, TauHi: tauHi, Seed: fx.seed})
		s.train = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("training the pre-filter: %w", err)
		}
		s.cfg.Prefilter = pf
		s.cfg.Matcher.Model = llm.GPT4
		s.cfg.Matcher.CheapModel = llm.GPT35Turbo0301
		s.cfg.Matcher.EscalateMargin = escalateAt
	} else {
		client = backend()
	}
	if w.latency > 0 {
		client = llm.NewLatency(client, w.latency)
	}
	if w.journal || w.resume {
		start := time.Now()
		j, err := runstore.OpenJournal(ctx, filepath.Join(dir, "journal"))
		if err != nil {
			return nil, fmt.Errorf("opening the journal: %w", err)
		}
		s.journal, s.cfg.Journal = j, j
		if w.journal {
			c, err := runstore.OpenCache(ctx, client, filepath.Join(dir, "cache"), 0)
			if err != nil {
				return nil, errors.Join(fmt.Errorf("opening the cache: %w", err), j.Close())
			}
			s.cache, client = c, c
		}
		s.open = time.Since(start)
	}
	if pr != nil {
		client = &tracedClient{inner: client, probe: pr}
		s.cfg.Matcher.Extractor = &tracedExtractor{inner: feature.NewLR(), probe: pr}
	}
	s.client = client
	return s, nil
}

// close releases the run store.
func (s *system) close() error {
	var errs []error
	if s.cache != nil {
		errs = append(errs, s.cache.Close())
	}
	if s.journal != nil {
		errs = append(errs, s.journal.Close())
	}
	return errors.Join(errs...)
}

// cutJournal writes the resume workload's starting point into dir: the
// journal of the same run, cancelled from Progress once cut windows have
// committed. Harness time, not set-up.
func cutJournal(ctx context.Context, w workload, fx *fixture, dir string, cut int) error {
	s, err := setUp(ctx, w, fx, dir, nil)
	if err != nil {
		return err
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.cfg.Progress = func(p pipeline.Progress) {
		if p.Windows >= cut {
			cancel()
		}
	}
	_, runErr := pipeline.Run(rctx, s.cfg, s.client, fx.data.TableA, fx.data.TableB)
	if err := s.close(); err != nil {
		return fmt.Errorf("closing the cut journal: %w", err)
	}
	switch {
	case runErr == nil:
		return fmt.Errorf("cutting the journal after %d windows: the run finished first", cut)
	case !errors.Is(runErr, context.Canceled):
		return fmt.Errorf("cutting the journal after %d windows: %w", cut, runErr)
	}
	return nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// treeBytes is the total size of the regular files under dir.
func treeBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil // a missing store is zero bytes
	})
	return n
}

// trainUSD is what labeling the pre-filter's training pairs costs.
func trainUSD(w workload) float64 {
	if !w.cascade {
		return 0
	}
	return float64(trainPairs) * cost.LabelPerPair
}
