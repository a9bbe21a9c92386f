package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mqsspulse/internal/telemetry"
)

// span is one interval the traced run recorded: either around a public call
// the benchmark made, or grafted from the stack's own job timeline. Times
// are offsets from the tracer's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Trace  string        `json:"trace"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// Span names recorded by the benchmark itself. Grafted stack spans keep
// their telemetry stage name ("compile", "queue-wait", "dispatch", ...),
// except the remote adapter's client-side dispatch, which becomes wireSpan.
const (
	jobSpan    = "job"         // one job, submitting call to result: the latency
	burstSpan  = "burst"       // one rabi_sweep burst
	buildSpan  = "qpi.build"   // NewCircuit … End
	submitSpan = "client.call" // RunCtx / SubmitSweepCtx / SubmitBoundCtx
	wireSpan   = "client.wire" // remote adapter round trip (server spans nest under it)
)

// jobTree is the spans of one traced unit (a job, or a burst and its jobs)
// before they are folded into the run's totals.
type jobTree struct {
	spans []span
}

// add appends a span and returns its ID (IDs are 1-based positions).
func (t *jobTree) add(name, trace string, parent int, start, end time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Trace: trace, Start: start, End: end})
	return id
}

// tracer records the traced run's spans. Per-layer self time is folded
// into totals as each unit completes, so memory stays bounded; the first
// keepJobs units are also kept whole and written out when the run ends.
type tracer struct {
	origin  time.Time
	self    map[string]time.Duration // summed self time per span name
	path    map[string]time.Duration // summed blocking-path time per span name
	latency time.Duration            // summed job-span durations
	jobs    int
	kept    []span // whole trees of the first keepJobs jobs, IDs made run-unique
}

const keepJobs = 512

func newTracer() *tracer {
	return &tracer{origin: time.Now(), self: map[string]time.Duration{}, path: map[string]time.Duration{}}
}

// at converts an absolute time to an offset from the tracer's origin.
func (tr *tracer) at(t time.Time) time.Duration { return t.Sub(tr.origin) }

// graft copies a stack timeline's spans into the tree under parent, keeping
// their parent structure; a top-level span whose stage is in under goes
// under that span instead. A remote-adapter dispatch span (its device names
// the remote address) becomes the client.wire span.
func (tr *tracer) graft(t *jobTree, tl *telemetry.Timeline, trace string, parent int, under map[telemetry.Stage]int) {
	spans := tl.Spans()
	ids := make(map[telemetry.SpanID]int, len(spans))
	// Parents precede children in ID order, not necessarily in start order.
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	for _, s := range spans {
		p, ok := ids[s.Parent]
		if !ok {
			p = parent
			if u, ok := under[s.Stage]; ok {
				p = u
			}
		}
		name := string(s.Stage)
		if s.Stage == telemetry.StageDispatch && strings.HasPrefix(s.Device, "remote:") {
			name = wireSpan
		}
		ids[s.ID] = t.add(name, trace, p, tr.at(s.Start), tr.at(s.End()))
	}
}

// fold adds a finished tree to the totals: every span's self time, and for
// each job span its blocking path, with extra naming spans outside the job
// span's subtree that the job also waited on (the sweep call of its burst).
func (tr *tracer) fold(t *jobTree, extra ...int) {
	jobsBefore := tr.jobs
	children := childIndex(t.spans)
	opaque := map[int]bool{}
	for _, id := range extra {
		opaque[id] = true
	}
	for name, d := range selfTimes(t.spans, children) {
		tr.self[name] += d
	}
	for _, s := range t.spans {
		if s.Name != jobSpan {
			continue
		}
		kids := append(append([]int(nil), children[s.ID]...), extra...)
		blockingPath(t.spans, children, s, kids, s.Start, s.End, opaque, tr.path)
		tr.latency += s.dur()
		tr.jobs++
	}
	if jobsBefore < keepJobs {
		off := len(tr.kept)
		for _, s := range t.spans {
			s.ID += off
			if s.Parent != 0 {
				s.Parent += off
			}
			tr.kept = append(tr.kept, s)
		}
	}
}

// childIndex maps each span ID to its children's IDs.
func childIndex(spans []span) map[int][]int {
	children := map[int][]int{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	return children
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its children cover.
func selfTimes(spans []span, children map[int][]int) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		var ivs [][2]time.Duration
		for _, c := range children[s.ID] {
			ivs = append(ivs, [2]time.Duration{spans[c-1].Start, spans[c-1].End})
		}
		out[s.Name] += s.dur() - covered(ivs, s.Start, s.End)
	}
	return out
}

// covered returns how much of [lo, hi] the union of the intervals covers.
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// blockingPath attributes every instant of [lo, hi] of span s to exactly
// one span along the chain that blocked s's end: walking back from hi, the
// child whose end is latest takes over; instants no child covers stay with
// s. kids are the children considered at this level. For nested,
// sequential spans this equals self time; for overlapping siblings (a
// sweep's jobs in flight while the sweep call still submits) it follows
// the critical path, so the attributions always sum to hi − lo. An opaque
// span takes its whole segment without descending into its children.
func blockingPath(spans []span, children map[int][]int, s span, kids []int, lo, hi time.Duration,
	opaque map[int]bool, out map[string]time.Duration) {

	t := hi
	for t > lo {
		best, bestEnd := -1, lo
		for _, c := range kids {
			cs := spans[c-1]
			if e := min(cs.End, t); cs.Start < t && e > bestEnd {
				best, bestEnd = c, e
			}
		}
		if best < 0 {
			out[s.Name] += t - lo
			return
		}
		out[s.Name] += t - bestEnd
		cs := spans[best-1]
		b := max(cs.Start, lo)
		if opaque[best] {
			out[cs.Name] += bestEnd - b
		} else {
			blockingPath(spans, children, cs, children[cs.ID], b, bestEnd, opaque, out)
		}
		t = b
	}
}

// writeKept writes the kept spans and the run summary as JSON under dir.
func (tr *tracer) writeKept(dir, workload string, seed int64, summary any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	data, err := json.Marshal(map[string]any{"summary": summary, "spans": tr.kept})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
