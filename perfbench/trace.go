package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"

	"batcher/internal/core"
	"batcher/internal/llm"
	"batcher/internal/prompt"
	"batcher/internal/tokens"
)

// span is one traced interval. Times are nanoseconds since the run
// started; spans of one run share its trace, and Parent links a span to
// the one that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Window int    `json:"window"` // -1 when the span belongs to no window
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Busy is the layer's own work inside [Start, End] when that is not
	// the whole interval: blocking minus yield stalls, or extraction
	// summed over the window's pairs. Zero means "use self time".
	Busy int64  `json:"busy_ns,omitempty"`
	N    int    `json:"n,omitempty"` // candidates, pairs or questions
	Tier string `json:"tier,omitempty"`
}

// layers is what one traced run measured, layer by layer.
type layers struct {
	spans []span

	blockBusy, blockStall int64
	featCalls, featProf   int
	featBusy              int64
	llmCalls, llmErrors   int
	cheap, expensive      int
	llmWait, backendBusy  int64
	callMS                []float64
	unlinked              int // LLM calls whose questions matched no window

	// Post-hoc timings of public layer functions on the run's inputs.
	prepare, route, parse, count time.Duration
	questions                    int
}

// analyze turns a traced outcome into spans and layer totals, then
// times the layer functions the wrappers cannot see into on the inputs
// the run captured: core.Framework.Prepare and cascade routing on each
// window, prompt.Parse on every request, tokens.Count on every prompt
// and completion. Parsing also links each LLM call to its window.
func analyze(ctx context.Context, w workload, o *outcome) (*layers, error) {
	pr, sb := o.probe, o.blocker
	n := len(o.pairs)
	wins := windows(n, w.window)
	l := &layers{}
	next := int64(1)
	add := func(s span) int64 {
		s.ID = next
		next++
		l.spans = append(l.spans, s)
		return s.ID
	}
	runID := add(span{Name: "run", Window: -1, Start: 0, End: int64(o.wall), N: n})
	winID := make([]int64, len(wins))
	contentWin := make(map[string]int, n)
	for wi, win := range wins {
		for _, p := range o.pairs[win.first : win.last+1] {
			if key := p.Serialize(); contentWin[key] == 0 {
				contentWin[key] = wi + 1 // 0 means absent
			}
		}
	}
	for wi, win := range wins {
		first, last := win.first, win.last
		winID[wi] = add(span{Name: "window", Parent: runID, Window: wi,
			Start: sb.enter[first], End: o.pairAt[last], N: last - first + 1})
		from := sb.start
		if first > 0 {
			from = sb.leave[first-1]
		}
		bs := span{Name: "blocking", Parent: winID[wi], Window: wi, Start: from, End: sb.enter[last], N: last - first + 1}
		for i := first; i <= last; i++ {
			prev := sb.start
			if i > 0 {
				prev = sb.leave[i-1]
			}
			bs.Busy += sb.enter[i] - prev
			l.blockStall += sb.leave[i] - sb.enter[i]
		}
		if last == n-1 { // the stream's end check belongs to the last window
			bs.Busy += sb.end - sb.leave[last]
			bs.End = sb.end
		}
		l.blockBusy += bs.Busy
		add(bs)
		if wi < len(pr.feat) && pr.feat[wi].calls > 0 {
			f := pr.feat[wi]
			add(span{Name: "feature", Parent: winID[wi], Window: wi, Start: f.first, End: f.last, Busy: f.busy, N: f.calls})
			l.featCalls += f.calls
			l.featProf += f.profiled
			l.featBusy += f.busy
		}
	}
	l.featCalls += pr.unplaced

	callID := make(map[int64]int64, len(pr.calls))
	calls := slices.Clone(pr.calls)
	sort.Slice(calls, func(i, j int) bool { return calls[i].start < calls[j].start })
	for _, c := range calls {
		t := time.Now()
		parsed, err := prompt.Parse(c.prompt)
		l.parse += time.Since(t)
		t = time.Now()
		tokens.Count(c.prompt)
		tokens.Count(c.completion)
		l.count += time.Since(t)
		parent, wi, nq := runID, -1, 0
		if err == nil {
			nq = len(parsed.Questions)
			if win := contentWin[parsed.Questions[0].Serialize()]; win > 0 {
				parent, wi = winID[win-1], win-1
			}
		}
		if wi < 0 {
			l.unlinked++
		}
		l.questions += nq
		tier := ""
		switch c.tier {
		case llm.TierCheap:
			l.cheap++
			tier = c.tier.String()
		case llm.TierExpensive:
			l.expensive++
			tier = c.tier.String()
		}
		callID[c.id] = add(span{Name: "llm", Parent: parent, Window: wi, Start: c.start, End: c.end, N: nq, Tier: tier})
		l.llmCalls++
		if c.failed {
			l.llmErrors++
		}
		l.llmWait += c.end - c.start
		l.callMS = append(l.callMS, float64(c.end-c.start)/1e6)
	}
	for _, b := range pr.backend {
		parent, ok := callID[b.parent]
		wi := -1
		if ok {
			wi = l.spans[parent-1].Window
		} else {
			parent = runID
		}
		add(span{Name: "backend", Parent: parent, Window: wi, Start: b.start, End: b.end})
		l.backendBusy += b.end - b.start
	}

	// Prepare and routing on each window as the run cut them, with an
	// unwrapped extractor and the run's own matcher configuration.
	mcfg := o.system.cfg.Matcher
	mcfg.Extractor = nil
	f := core.NewFromConfig(o.system.client, mcfg)
	pf := o.system.cfg.Prefilter
	for wi, win := range wins {
		amb := o.pairs[win.first : win.last+1]
		if pf != nil {
			t := time.Now()
			amb = pf.RouteAll(amb).Amb
			l.route += time.Since(t)
		}
		t := time.Now()
		if _, err := f.Prepare(ctx, amb, amb); err != nil {
			return nil, fmt.Errorf("preparing window %d: %w", wi, err)
		}
		l.prepare += time.Since(t)
	}
	return l, nil
}

// exact is the traced run's counters that must repeat exactly.
func (l *layers) exact() string {
	return fmt.Sprintf("feature.calls=%d llm.calls=%d llm.errors=%d cheap=%d expensive=%d questions=%d unlinked=%d",
		l.featCalls, l.llmCalls, l.llmErrors, l.cheap, l.expensive, l.questions, l.unlinked)
}

// writeTrace writes spans as JSON lines.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating the trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing the trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing the trace: %w", err)
	}
	return f.Close()
}

// readTrace reads spans written by writeTrace.
func readTrace(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening the trace: %w", err)
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(f)
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return spans, nil
		} else if err != nil {
			return nil, fmt.Errorf("reading the trace: %w", err)
		}
		spans = append(spans, s)
	}
}

// printLayerTable prints, per span name, how many spans there are, their
// summed duration, and their summed busy time: the Busy field where the
// span carries one, otherwise its self time (duration minus the part
// of it that child spans cover).
func printLayerTable(w io.Writer, spans []span) {
	children := make(map[int64][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	type row struct {
		spans     int
		dur, busy int64
	}
	rows := make(map[string]*row)
	var names []string
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
			names = append(names, s.Name)
		}
		r.spans++
		r.dur += s.End - s.Start
		if s.Busy > 0 {
			r.busy += s.Busy
		} else {
			r.busy += s.End - s.Start - covered(s, children[s.ID])
		}
	}
	fmt.Fprintf(w, "%-10s %8s %12s %12s\n", "layer", "spans", "sum_dur_s", "busy_s")
	for _, name := range names {
		r := rows[name]
		fmt.Fprintf(w, "%-10s %8d %12.4f %12.4f\n", name, r.spans, float64(r.dur)/1e9, float64(r.busy)/1e9)
	}
}

// covered is how much of parent's interval the children's union covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}
