// Command jobbench is the repository's end-to-end benchmark: it drives
// default jobs through the public stack (client, ptemplate, qrm, qdmi,
// compiler, remote adapter and server) in closed loops, checks every
// output, and prints the end-to-end metrics, or with -trace 1 the
// per-layer split. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mqsspulse/internal/compiler"
	"mqsspulse/internal/passes"
	"mqsspulse/internal/qdmi"
)

// A run sets its workload up at least minSetups times, and again until
// the set-ups add up to setupBudget or maxSetups is reached; setup_s is
// the median, and the last set-up serves the timed phase.
const (
	minSetups   = 5
	maxSetups   = 1000
	setupBudget = 2 * time.Second
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Metric names and units, in BENCHMARK.json order.
var (
	endToEnd = [][2]string{
		{"setup_s", "s"}, {"jobs_per_s", "1/s"}, {"latency_p50_ms", "ms"}, {"latency_p95_ms", "ms"},
		{"cpu_ms_per_job", "ms"}, {"alloc_mb_per_job", "MB"}, {"live_heap_mb", "MB"},
	}
	perLayer = [][2]string{
		{"qpi.build_us", "us"}, {"client.compile_us", "us"}, {"client.submit_self_us", "us"},
		{"client.cache_hit_ratio", "1"}, {"client.evictions_per_job", "count"}, {"client.wire_us", "us"},
		{"compiler.frontend_us", "us"}, {"compiler.passes_us", "us"}, {"compiler.backend_us", "us"},
		{"compiler.payload_bytes", "bytes"}, {"ptemplate.bind_us", "us"}, {"qrm.queue_wait_us", "us"},
		{"qrm.dispatch_self_us", "us"}, {"devices.job_us", "us"}, {"devices.alloc_mb_per_job", "MB"},
		{"simq.execute_us", "us"}, {"readout.post_us", "us"}, {"bench.trace_overhead_frac", "1"},
	}
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one benchmark run and returns the exit code: 0 when every
// output was correct, 1 when any job failed, 2 on a usage or set-up error.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("jobbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: bell_density, rabi_sweep, compile_churn or remote_bound")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead")
	outDir := fs.String("out", filepath.Join(buildDir(), "traces"), "directory for traced-run span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "jobbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	runtime.GOMAXPROCS(w.procs)
	measure := time.Duration(*seconds * float64(time.Second))
	// The hard stop sits well past the measured phase: a run that reaches
	// it has hung, and fails.
	ctx, cancel := context.WithTimeout(context.Background(), 2*measure+time.Minute)
	defer cancel()

	setupS, e, err := setUp(ctx, w, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %s set-up: %v\n", w.name, err)
		return 2
	}
	defer e.close()

	var out result
	detail := map[string]any{"workload": w.name, "seed": *seed, "machine": machine()}
	// The first jobs after set-up run slow while the heap and the stack's
	// caches grow to their steady size; they are checked but not timed.
	warm, _, err := timed(ctx, e, min(warmup, measure/4), nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %s warm-up: %v\n", w.name, err)
		return 2
	}
	phases := []*phase{warm}
	if *trace == 0 {
		p, m, err := timed(ctx, e, measure, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jobbench: %s: %v\n", w.name, err)
			return 2
		}
		phases = append(phases, p)
		out.Metrics = endToEndMetrics(setupS, m)
		detail["samples"] = m.samples
	} else {
		p, tm, err := tracedRun(ctx, e, measure, w.name, *seed, *outDir, detail)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jobbench: %s: %v\n", w.name, err)
			return 2
		}
		phases = p
		out.Metrics = tm
	}
	for _, p := range phases {
		out.Attempted += p.attempted
		out.Failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "jobbench: %s: job failed: %v\n", w.name, p.firstErr)
		}
	}
	wrong, err := e.verify()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %s: pooled check failed: %v\n", w.name, err)
	}
	out.Failed += wrong
	out.Correct = out.Failed == 0 && out.Attempted > 0
	detail["failed_frac"] = ratio(float64(out.Failed), float64(out.Attempted))
	for _, v := range []any{detail, out} {
		data, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jobbench: %s: encoding the result: %v\n", w.name, err)
			return 2
		}
		fmt.Fprintln(stdout, string(data))
	}
	if !out.Correct {
		return 1
	}
	return 0
}

// buildDir is where the benchmark keeps what it writes: the directory the
// run command builds into.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// ratio is a/b, or 0 when b is 0 (a phase without jobs).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setUp builds the workload's stack repeatedly, keeps the last, and
// returns the median set-up time in seconds.
func setUp(ctx context.Context, w *workload, seed int64) (float64, *env, error) {
	var times []float64
	var e *env
	var total time.Duration
	for len(times) < minSetups || (total < setupBudget && len(times) < maxSetups) {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = w.setup(ctx, seed); err != nil {
			return 0, nil, err
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
	}
	return median(times), e, nil
}

// phaseMeasure is what one timed phase cost the process. Every figure is
// taken over the whole phase, so stalls and garbage collection count in it.
type phaseMeasure struct {
	alloc   uint64
	heap    uint64
	samples int
	p50     float64
	p95     float64
	// jobs is the number of jobs attempted. rate is the jobs completed
	// with correct output ÷ the phase's wall time; cpuPerJob is the
	// process CPU over the phase ÷ jobs.
	jobs      int
	rate      float64
	cpuPerJob time.Duration
}

// warmup is how long a run drives its workload before the timed phase
// (a quarter of the phase for runs shorter than four warm-ups).
const warmup = time.Second

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// medianWindow is the span over which timed takes one median latency.
// On a shared 2-vCPU machine the CPU switches between a fast and a slow
// state every few seconds, which splits per-job latency into two modes;
// the median of a whole phase then lands in whichever mode held most of
// it (remote_bound's spread 0.38 over ten runs, bell_density's 0.34),
// while the time-average of per-second medians moves with the mix.
const medianWindow = time.Second

// timed runs closed-loop units for d and measures the phase. p50 is the
// time-weighted mean of the median latency of each medianWindow; every
// other figure is taken over the whole phase. Latency quantiles are
// taken before the samples are dropped, so the live heap read after the
// final collection is the stack's, not the benchmark's.
func timed(ctx context.Context, e *env, d time.Duration, tr *tracer) (*phase, phaseMeasure, error) {
	runtime.GC()
	p := &phase{tr: tr}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start, cpu0 := time.Now(), cpuTime()
	var p50Sum, p50Time float64 // Σ window median × window seconds, Σ window seconds
	wStart, wFrom := start, 0
	for now := start; now.Sub(start) < d; {
		if err := e.unit(ctx, p); err != nil {
			return nil, phaseMeasure{}, err
		}
		now = time.Now()
		if seg := p.lat[wFrom:]; len(seg) > 0 && (now.Sub(wStart) >= medianWindow || now.Sub(start) >= d) {
			sec := now.Sub(wStart).Seconds()
			p50Sum, p50Time = p50Sum+median(seg)*sec, p50Time+sec
			wStart, wFrom = now, len(p.lat)
		}
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&after)
	m := phaseMeasure{alloc: after.TotalAlloc - before.TotalAlloc, samples: len(p.lat), jobs: p.attempted}
	if m.samples > 0 {
		m.p50, m.p95 = p50Sum/p50Time, quantile(p.lat, 0.95)
		m.rate, m.cpuPerJob = float64(m.samples)/wall.Seconds(), cpu/time.Duration(m.jobs)
	}
	p.lat = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	m.heap = after.HeapAlloc
	return p, m, nil
}

func endToEndMetrics(setupS float64, m phaseMeasure) map[string]metric {
	v := map[string]float64{
		"setup_s":          setupS,
		"jobs_per_s":       m.rate,
		"latency_p50_ms":   m.p50,
		"latency_p95_ms":   m.p95,
		"cpu_ms_per_job":   float64(m.cpuPerJob) / 1e6,
		"alloc_mb_per_job": float64(m.alloc) / 1e6 / float64(max(m.jobs, 1)),
		"live_heap_mb":     float64(m.heap) / 1e6,
	}
	return withUnits(endToEnd, v)
}

func withUnits(names [][2]string, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, nu := range names {
		out[nu[0]] = metric{Value: v[nu[0]], Unit: nu[1]}
	}
	return out
}

// tracedRun measures the per-layer split: half the time untraced, half
// traced (their throughput ratio is the tracing overhead), then the
// layer-isolation pass. Spans and a summary go to a file under outDir.
func tracedRun(ctx context.Context, e *env, d time.Duration, name string, seed int64, outDir string,
	detail map[string]any) ([]*phase, map[string]metric, error) {

	plain, pm, err := timed(ctx, e, d/2, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	cache0 := e.cl.CacheStats()
	qrm0 := e.cl.QRM().Stats()
	traced, tm, err := timed(ctx, e, d/2, tr)
	if err != nil {
		return nil, nil, err
	}
	cache1 := e.cl.CacheStats()
	qrm1 := e.cl.QRM().Stats()
	iso, err := isolate(ctx, e, d/10)
	if err != nil {
		return nil, nil, err
	}
	jobs := float64(max(tr.jobs, 1))
	us := func(names ...string) float64 {
		var t time.Duration
		for _, n := range names {
			t += tr.self[n]
		}
		return float64(t) / 1e3 / jobs
	}
	lookups := float64((cache1.Hits - cache0.Hits) + (cache1.Binds - cache0.Binds))
	v := map[string]float64{
		"qpi.build_us":              us(buildSpan),
		"client.compile_us":         us("compile", "cache-hit", "cache-miss"),
		"client.submit_self_us":     us(submitSpan),
		"client.cache_hit_ratio":    ratio(lookups, lookups+float64(cache1.Misses-cache0.Misses)),
		"client.evictions_per_job":  float64(cache1.Evictions-cache0.Evictions) / float64(max(traced.attempted, 1)),
		"client.wire_us":            us(wireSpan),
		"compiler.frontend_us":      iso.per(iso.frontend),
		"compiler.passes_us":        iso.per(iso.passes),
		"compiler.backend_us":       iso.per(iso.backend),
		"compiler.payload_bytes":    float64(iso.payloadBytes) / float64(max(iso.compiles, 1)),
		"ptemplate.bind_us":         us("bind"),
		"qrm.queue_wait_us":         us("queue-wait"),
		"qrm.dispatch_self_us":      us("dispatch"),
		"devices.job_us":            float64(iso.devJob) / 1e3 / float64(max(iso.devJobs, 1)),
		"devices.alloc_mb_per_job":  float64(iso.devAlloc) / 1e6 / float64(max(iso.devJobs, 1)),
		"simq.execute_us":           us("device-execute"),
		"readout.post_us":           us("readout-post"),
		"bench.trace_overhead_frac": 1 - ratio(tm.rate, pm.rate),
	}
	summary := traceSummary(tr, v)
	summary["qrm_completed"] = qrm1.Completed - qrm0.Completed
	summary["telemetry_counters"] = e.cl.Telemetry().Counters
	detail["trace"] = summary
	path, err := tr.writeKept(outDir, name, seed, summary)
	if err != nil {
		return nil, nil, err
	}
	detail["trace_file"] = path
	return []*phase{plain, traced, iso.phase}, withUnits(perLayer, v), nil
}

// spanLayers are the per-layer metrics taken from traced spans: the
// candidates for the largest self time.
var spanLayers = []string{
	"qpi.build_us", "client.compile_us", "client.submit_self_us", "client.wire_us", "ptemplate.bind_us",
	"qrm.queue_wait_us", "qrm.dispatch_self_us", "simq.execute_us", "readout.post_us",
}

// traceSummary reports what the trace says about the workload design: the
// traced per-job latency, its blocking-path split (summed over span names
// it equals the latency; "job" is the part no recorded span explains),
// every span's mean self time, and the layer with the largest.
func traceSummary(tr *tracer, v map[string]float64) map[string]any {
	jobs := float64(max(tr.jobs, 1))
	latency := float64(tr.latency) / 1e3 / jobs
	perJob := func(m map[string]time.Duration) map[string]float64 {
		out := make(map[string]float64, len(m))
		for n, d := range m {
			out[n] = float64(d) / 1e3 / jobs
		}
		return out
	}
	path := perJob(tr.path)
	largest := spanLayers[0]
	for _, n := range spanLayers {
		if v[n] > v[largest] {
			largest = n
		}
	}
	dispatch := v["qrm.dispatch_self_us"] + v["ptemplate.bind_us"] + v["simq.execute_us"] + v["readout.post_us"]
	return map[string]any{
		"traced_jobs":              tr.jobs,
		"traced_latency_us":        latency,
		"unexplained_frac":         ratio(path[jobSpan], latency),
		"execute_frac_of_latency":  ratio(v["simq.execute_us"], latency),
		"execute_frac_of_dispatch": ratio(v["simq.execute_us"], dispatch),
		"largest_self_time":        largest,
		"blocking_path_us":         path,
		"self_us":                  perJob(tr.self),
	}
}

// isoStats is what the layer-isolation pass measured.
type isoStats struct {
	phase                     *phase
	frontend, passes, backend time.Duration
	payloadBytes, compiles    int
	devJob                    time.Duration
	devAlloc                  uint64
	devJobs                   int
}

func (s isoStats) per(d time.Duration) float64 {
	return float64(d) / 1e3 / float64(max(s.compiles, 1))
}

// isolate replays the recorded kernels through the compiler's stage
// functions, then the recorded device work straight to the device,
// bypassing client and scheduler; each half runs for about budget/2 and
// at least once.
func isolate(ctx context.Context, e *env, budget time.Duration) (isoStats, error) {
	s := isoStats{phase: &phase{}}
	ks := e.kernels()
	if len(ks) == 0 {
		return s, fmt.Errorf("isolation: no kernel was recorded")
	}
	deadline := time.Now().Add(budget / 2)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		k := ks[i%len(ks)]
		t0 := time.Now()
		m, err := compiler.Frontend(k, e.dev)
		if err != nil {
			return s, fmt.Errorf("isolation frontend: %w", err)
		}
		t1 := time.Now()
		if err := passes.DefaultPipeline().Run(m, passes.NewContext(e.dev)); err != nil {
			return s, fmt.Errorf("isolation passes: %w", err)
		}
		t2 := time.Now()
		q, err := compiler.Backend(m, e.dev)
		if err != nil {
			return s, fmt.Errorf("isolation backend: %w", err)
		}
		payload := q.Emit()
		t3 := time.Now()
		s.frontend += t1.Sub(t0)
		s.passes += t2.Sub(t1)
		s.backend += t3.Sub(t2)
		s.payloadBytes += len(payload)
		s.compiles++
	}
	// Prepare the device work first, so the allocation delta below covers
	// the device calls alone.
	jobs := make([]directJob, 0, 64)
	for i := 0; i < cap(jobs); i++ {
		j, err := e.direct(i)
		if err != nil {
			return s, fmt.Errorf("isolation prepare: %w", err)
		}
		jobs = append(jobs, j)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline = time.Now().Add(budget / 2)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		j := jobs[i%len(jobs)]
		t0 := time.Now()
		job, err := j.submit()
		if err == nil {
			job.Wait(ctx)
			var res *qdmi.Result
			if res, err = job.Result(); err == nil {
				s.devJob += time.Since(t0)
				err = checkCounts(res.Counts, j.shots, j.measured)
			}
		}
		s.devJobs++
		s.phase.done(0, err)
	}
	runtime.ReadMemStats(&after)
	s.devAlloc = after.TotalAlloc - before.TotalAlloc
	return s, nil
}
