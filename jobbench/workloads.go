package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mqsspulse/internal/client"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/experiments"
	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/telemetry"
	"mqsspulse/internal/waveform"
)

// Workload shapes. Every workload is a closed loop driven by one client
// goroutine: a unit (one job, or one sweep burst) completes before the
// next one starts.
const (
	bellShots  = 64
	smallShots = 16
	sweepSize  = 256
	// churnOps is the number of random operations per generated kernel,
	// before its waveform definitions and measurements.
	churnOps = 9
	// recordedKernels bounds how many generated kernels compile_churn keeps
	// for the layer-isolation replay.
	recordedKernels = 64
	// tinyFidelity is the readout fidelity of the small simulators: 1%
	// symmetric readout flips.
	tinyFidelity = 0.99
)

// phase accumulates one timed phase of a run.
type phase struct {
	tr        *tracer   // nil when the phase is untraced
	lat       []float64 // latency of each job that completed, ms
	attempted int
	failed    int
	firstErr  error
}

// done records one finished job: its latency, or its failure.
func (p *phase) done(lat time.Duration, err error) {
	p.attempted++
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
		return
	}
	p.lat = append(p.lat, float64(lat)/1e6)
}

// env is one workload's stack after set-up.
type env struct {
	cl *client.Client // the stack's client (the server's, on remote_bound)
	// unit runs one closed-loop unit and records its jobs into p. It
	// returns an error only when the run must stop.
	unit func(ctx context.Context, p *phase) error
	// verify runs the pooled output check over every job so far and
	// returns how many jobs it condemns.
	verify func() (int, error)
	// dev is the device the isolation pass replays against; kernels are
	// the recorded kernels, direct prepares the i-th recorded unit of
	// device work for a submission that bypasses client and scheduler.
	dev     qdmi.Device
	kernels func() []*qpi.Circuit
	direct  func(i int) (directJob, error)
	close   func()
}

// directJob is one unit of device work ready to submit straight to the
// device, with what its result must satisfy.
type directJob struct {
	submit   func() (qdmi.Job, error)
	shots    int
	measured uint64
}

// workload names a set-up function; see README.md for why each exists.
type workload struct {
	name  string
	setup func(ctx context.Context, seed int64) (*env, error)
	// procs is the GOMAXPROCS a run pins: the number of jobs the workload
	// keeps running at once. A loop with one job in flight gets one P:
	// its goroutines hand each job on to the next, and with a second P
	// those hand-offs wake a thread on the other CPU, which on a shared
	// 2-vCPU machine made remote_bound's throughput and p95 spread 0.25
	// and 0.49 over five runs, against 0.05 and 0.06 with one P.
	// rabi_sweep's pool runs a job on each of its two devices.
	procs int
}

var workloads = []workload{
	{"bell_density", setupBell, 1},
	{"rabi_sweep", setupRabi, 2},
	{"compile_churn", setupChurn, 1},
	{"remote_bound", setupRemote, 1},
}

// subSeed derives an independent stream seed for one use of the run seed
// (SplitMix64 finalizer over seed and a per-use salt).
func subSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// newStack registers the devices, opens a QDMI session over them and a
// client over that session.
func newStack(devs ...*devices.SimDevice) (*client.Client, func(), error) {
	drv := qdmi.NewDriver()
	for _, d := range devs {
		if err := drv.RegisterDevice(d); err != nil {
			return nil, nil, err
		}
	}
	ses := drv.OpenSession()
	cl := client.New(ses)
	return cl, func() { cl.Close(); ses.Close() }, nil
}

// tinyDevice is a dim-2, closed-system (T1 = T2 = 0) simulator with short
// pulses, 1% readout flips and no drift; sites > 1 adds ZZ couplers.
func tinyDevice(name string, sites int, seed int64) (*devices.SimDevice, error) {
	cfg := devices.Config{
		Name: name, Technology: "simulator", Version: "jobbench-1.0",
		SampleRateHz: 1e9, Granularity: 1, MinSamples: 1, MaxSamples: 1 << 12,
		DriveRabiHz: 250e6, GateSamples: 8, ReadoutSamples: 8,
		ReadoutFidelity: tinyFidelity, Seed: seed, MaxShots: 1 << 12,
	}
	for i := 0; i < sites; i++ {
		cfg.Sites = append(cfg.Sites, devices.SiteConfig{Dim: 2, FreqHz: 5e9 + 0.2e9*float64(i)})
	}
	for i := 0; i+1 < sites; i++ {
		cfg.Couplings = append(cfg.Couplings, devices.CouplingConfig{A: i, Kind: devices.CouplingZZ, RabiHz: 25e6})
	}
	return devices.New(cfg)
}

// traceSingle folds one single-call job into the tracer: the job span from
// start to end, an optional qpi.build span up to built, the client call
// span from call to end with the stack's timeline grafted under it.
func traceSingle(tr *tracer, n int, start, built, call, end time.Time, tl *telemetry.Timeline) {
	t := &jobTree{}
	id := fmt.Sprint(n)
	root := t.add(jobSpan, id, 0, tr.at(start), tr.at(end))
	if built.After(start) {
		t.add(buildSpan, id, root, tr.at(start), tr.at(built))
	}
	c := t.add(submitSpan, id, root, tr.at(call), tr.at(end))
	tr.graft(t, tl, id, c, nil)
	tr.fold(t)
}

// setupBell builds the ROADMAP's default job: the Bell kernel at 64 shots
// on the 2-site superconducting preset (d=3, T1/T2, one shot worker, so the
// serial density engine runs), compiled once so every job is a cache hit.
func setupBell(ctx context.Context, seed int64) (*env, error) {
	dev, err := devices.Superconducting("bell-sc", 2, subSeed(seed, 1))
	if err != nil {
		return nil, err
	}
	cl, closeStack, err := newStack(dev)
	if err != nil {
		return nil, err
	}
	k := experiments.BellKernel()
	if _, _, err := cl.Compile(k, dev.Name()); err != nil {
		closeStack()
		return nil, err
	}
	var coherence [2]float64
	for i, p := range []qdmi.SiteProperty{qdmi.SitePropT1Seconds, qdmi.SitePropT2Seconds} {
		v, err := dev.QuerySiteProperty(0, p)
		if err != nil {
			closeStack()
			return nil, err
		}
		coherence[i] = v.(float64)
	}
	check := &bellCheck{}
	floor := func(tau float64) float64 {
		return bellFloor(dev.CalibratedReadoutFidelity(0), dev.CalibratedReadoutFidelity(1), tau, coherence[0], coherence[1])
	}
	jobs := 0
	e := &env{cl: cl, dev: dev, close: closeStack, verify: check.verify,
		kernels: func() []*qpi.Circuit { return []*qpi.Circuit{k} }}
	e.unit = func(ctx context.Context, p *phase) error {
		var tl *telemetry.Timeline
		if p.tr != nil {
			tl = telemetry.NewTimeline("", nil)
		}
		start := time.Now()
		res, err := cl.RunCtx(ctx, k, dev.Name(), client.SubmitOptions{Shots: bellShots, Timeline: tl})
		end := time.Now()
		if err == nil {
			check.expect = floor(res.DurationSeconds)
			err = check.add(res.Counts, bellShots)
		}
		p.done(end.Sub(start), err)
		if p.tr != nil && err == nil {
			traceSingle(p.tr, jobs, start, start, start, end, tl)
		}
		jobs++
		return ctx.Err()
	}
	e.direct = func(int) (directJob, error) {
		payload, format, err := cl.Compile(k, dev.Name())
		if err != nil {
			return directJob{}, err
		}
		return directJob{shots: bellShots, measured: 0b11,
			submit: func() (qdmi.Job, error) { return dev.SubmitJob(payload, format, bellShots) }}, nil
	}
	return e, nil
}

// sweepAngles spreads n Rabi angles over (0, π], the range a symbolic
// rotation may span, and returns them with a seeded visiting order.
func sweepAngles(n int, seed int64) ([]float64, []int) {
	angles := make([]float64, n)
	for i := range angles {
		angles[i] = math.Pi * float64(i+1) / float64(n)
	}
	return angles, rand.New(rand.NewSource(seed)).Perm(n)
}

// rabiTemplate is the one-qubit RX(θ) Rabi template over (0, π].
func rabiTemplate() (*ptemplate.Template, error) {
	k := qpi.NewCircuit("rabi", 1, 1).RXP(0, qpi.Sym("theta")).Measure(0, 0)
	if err := k.End(); err != nil {
		return nil, err
	}
	return ptemplate.New(k, ptemplate.Param{Name: "theta", Min: math.Pi / sweepSize, Max: math.Pi})
}

// sweepDirect prepares recorded sweep point i for a direct device
// submission: bound here, submitted as a module.
func sweepDirect(dev *devices.SimDevice, compiled *ptemplate.Compiled, bindings []ptemplate.Bindings) func(int) (directJob, error) {
	return func(i int) (directJob, error) {
		mod, err := compiled.Bind(bindings[i%len(bindings)])
		if err != nil {
			return directJob{}, err
		}
		return directJob{shots: smallShots, measured: 0b1, submit: func() (qdmi.Job, error) {
			return dev.SubmitModule(mod, qdmi.JobOptions{Shots: smallShots})
		}}, nil
	}
}

// setupRabi builds a 2-member pool of 1-site closed-system simulators and
// compiles the 256-point Rabi template once; a unit is one burst of the
// whole sweep through SubmitSweepCtx, waited on to the last ticket.
func setupRabi(ctx context.Context, seed int64) (*env, error) {
	a, err := tinyDevice("rabi-a", 1, subSeed(seed, 2))
	if err != nil {
		return nil, err
	}
	b, err := tinyDevice("rabi-b", 1, subSeed(seed, 3))
	if err != nil {
		return nil, err
	}
	cl, closeStack, err := newStack(a, b)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*env, error) { closeStack(); return nil, err }
	if err := cl.QRM().RegisterPool("rabi", a.Name(), b.Name()); err != nil {
		return fail(err)
	}
	tpl, err := rabiTemplate()
	if err != nil {
		return fail(err)
	}
	compiled, err := cl.CompileTemplate(tpl, a.Name())
	if err != nil {
		return fail(err)
	}
	angles, order := sweepAngles(sweepSize, subSeed(seed, 4))
	bindings := make([]ptemplate.Bindings, sweepSize)
	for i, j := range order {
		bindings[i] = ptemplate.Bindings{"theta": angles[j]}
	}
	check := newRabiCheck(angles, tinyFidelity)
	observed := make([]time.Time, sweepSize)
	results := make([]*qdmi.Result, sweepSize)
	waitErrs := make([]error, sweepSize)
	bursts := 0
	e := &env{cl: cl, dev: a, close: closeStack, verify: check.verify,
		kernels: func() []*qpi.Circuit { return []*qpi.Circuit{tpl.Circuit} },
		direct:  sweepDirect(a, compiled, bindings)}
	e.unit = func(ctx context.Context, p *phase) error {
		start := time.Now()
		tickets, errs := cl.SubmitSweepCtx(ctx, tpl, "", bindings, client.SubmitOptions{Shots: smallShots, Pool: "rabi"})
		submitted := time.Now()
		for i, tk := range tickets {
			results[i], waitErrs[i] = nil, errs[i]
			if tk != nil {
				results[i], waitErrs[i] = tk.Wait(ctx)
			}
			observed[i] = time.Now()
		}
		for i, res := range results {
			err := waitErrs[i]
			if err == nil {
				err = check.add(order[i], res.Counts, smallShots)
			}
			p.done(observed[i].Sub(start), err)
		}
		if p.tr != nil {
			traceBurst(p.tr, bursts, start, submitted, observed, tickets)
		}
		bursts++
		return ctx.Err()
	}
	return e, nil
}

// traceBurst folds one sweep burst into the tracer: a burst span over the
// whole burst, the SubmitSweepCtx call span with every point's compile
// span grafted under it, and per point a job span from burst start to the
// point's result holding that point's queue-wait and dispatch spans. A
// point's blocking path also runs through the sweep call.
func traceBurst(tr *tracer, n int, start, submitted time.Time, observed []time.Time, tickets []*qrm.Ticket) {
	t := &jobTree{}
	burstID := fmt.Sprintf("b%d", n)
	last := submitted
	for _, o := range observed {
		if o.After(last) {
			last = o
		}
	}
	root := t.add(burstSpan, burstID, 0, tr.at(start), tr.at(last))
	call := t.add(submitSpan, burstID, root, tr.at(start), tr.at(submitted))
	for i, tk := range tickets {
		if tk == nil {
			continue
		}
		id := fmt.Sprintf("%s/p%d", burstID, i)
		job := t.add(jobSpan, id, root, tr.at(start), tr.at(observed[i]))
		tr.graft(t, tk.Timeline(), id, job, map[telemetry.Stage]int{telemetry.StageCompile: call})
	}
	tr.fold(t, call)
}

// churnSpec is one generated kernel, drawn before its job starts so that
// building it from the spec is pure qpi work.
type churnSpec struct {
	name    string
	ops     []churnOp
	pulses  []waveform.Gaussian
	samples []int
	// meas lists the measurements in the order the kernel makes them:
	// measured qubit, then the classical bit it names.
	meas     [][2]int
	measured uint64
	// known kernels keep every qubit in a basis state, so their outcome
	// is want on every shot but for readout flips.
	known bool
	want  uint64
}

type churnOp struct {
	kind  string // rx, rz, h, cx, play, frame
	q     int
	angle float64
	wf    int
}

var (
	churnKinds = []string{"rx", "rz", "h", "cx", "play", "frame"}
	// knownKinds leave a basis state a basis state: rx is drawn as ±π, a
	// play is a waveform followed by its negative, which undoes it.
	knownKinds = []string{"rx", "rz", "cx", "play", "frame"}
)

// knownShare is the share of generated kernels whose outcome is known in
// advance: one in knownShare.
const knownShare = 4

// nextChurnSpec draws a kernel of churnOps operations over 2 qubits,
// mixing gates with Gaussian waveform plays and frame changes. It measures
// a random non-empty subset of the qubits, each into a randomly assigned
// classical bit, in random order. One kernel in knownShare draws only
// operations that map basis states to basis states, and records the
// outcome they produce from |00>.
func nextChurnSpec(rng *rand.Rand, n int) churnSpec {
	s := churnSpec{name: fmt.Sprintf("churn-%d", n), known: rng.Intn(knownShare) == 0}
	for i := 0; i < 2; i++ {
		s.pulses = append(s.pulses, waveform.Gaussian{Amplitude: 0.05 + 0.45*rng.Float64(), SigmaFrac: 0.2})
		s.samples = append(s.samples, 16+rng.Intn(33))
	}
	kinds := churnKinds
	if s.known {
		kinds = knownKinds
	}
	var state [2]uint64
	for i := 0; i < churnOps; i++ {
		op := churnOp{kind: kinds[rng.Intn(len(kinds))], q: rng.Intn(2),
			angle: 2 * math.Pi * rng.Float64(), wf: rng.Intn(len(s.pulses))}
		if s.known && op.kind == "rx" {
			op.angle = math.Pi * float64(1-2*rng.Intn(2))
			state[op.q] ^= 1
		}
		if op.kind == "cx" {
			state[1-op.q] ^= state[op.q]
		}
		s.ops = append(s.ops, op)
	}
	subset, bits, order := 1+rng.Intn(3), rng.Perm(2), rng.Perm(2)
	for _, q := range order {
		if subset&(1<<q) != 0 {
			s.meas = append(s.meas, [2]int{q, bits[q]})
			s.measured |= 1 << bits[q]
			s.want |= state[q] << bits[q]
		}
	}
	return s
}

// build turns the spec into a finished kernel through the qpi circuit API.
func (s churnSpec) build(freqHz func(q int) float64) (*qpi.Circuit, error) {
	c := qpi.NewCircuit(s.name, 2, 2)
	for i, g := range s.pulses {
		c.WaveformEnvelope(fmt.Sprintf("g%d", i), g, s.samples[i])
		if s.known {
			c.WaveformEnvelope(fmt.Sprintf("g%d-neg", i), waveform.Gaussian{Amplitude: -g.Amplitude, SigmaFrac: g.SigmaFrac}, s.samples[i])
		}
	}
	for _, op := range s.ops {
		port := fmt.Sprintf("q%d-drive", op.q)
		switch op.kind {
		case "rx":
			c.RX(op.q, op.angle)
		case "rz":
			c.RZ(op.q, op.angle)
		case "h":
			c.H(op.q)
		case "cx":
			c.CX(op.q, 1-op.q)
		case "play":
			c.PlayWaveform(port, fmt.Sprintf("g%d", op.wf))
			if s.known {
				c.PlayWaveform(port, fmt.Sprintf("g%d-neg", op.wf))
			}
		case "frame":
			c.FrameChange(port, freqHz(op.q), op.angle)
		}
	}
	for _, m := range s.meas {
		c.Measure(m[0], m[1])
	}
	return c, c.End()
}

// check verifies one job of the kernel: its counts and mask, and on a
// known kernel its outcome.
func (s churnSpec) check(counts map[uint64]int, shots int) error {
	if err := checkCounts(counts, shots, s.measured); err != nil {
		return err
	}
	if s.known {
		return checkKnown(counts, shots, s.want)
	}
	return nil
}

// setupChurn builds a 2-site closed-system simulator with a ZZ coupler and
// fills the lowering cache to its limit with generated kernels, so every
// timed job pays a cache miss, an insert and an LRU eviction.
func setupChurn(ctx context.Context, seed int64) (*env, error) {
	dev, err := tinyDevice("churn-q", 2, subSeed(seed, 5))
	if err != nil {
		return nil, err
	}
	cl, closeStack, err := newStack(dev)
	if err != nil {
		return nil, err
	}
	freq := func(q int) float64 { return dev.CalibratedFrequency(q) }
	rng := rand.New(rand.NewSource(subSeed(seed, 6)))
	n := 0
	for ; n < client.DefaultCacheEntries; n++ {
		k, err := nextChurnSpec(rng, n).build(freq)
		if err == nil {
			_, _, err = cl.Compile(k, dev.Name())
		}
		if err != nil {
			closeStack()
			return nil, err
		}
	}
	var recorded []*qpi.Circuit
	e := &env{cl: cl, dev: dev, close: closeStack, verify: func() (int, error) { return 0, nil },
		kernels: func() []*qpi.Circuit { return recorded }}
	e.unit = func(ctx context.Context, p *phase) error {
		spec := nextChurnSpec(rng, n)
		n++
		var tl *telemetry.Timeline
		if p.tr != nil {
			tl = telemetry.NewTimeline("", nil)
		}
		start := time.Now()
		k, err := spec.build(freq)
		built := time.Now()
		var res *qpi.Result
		if err == nil {
			res, err = cl.RunCtx(ctx, k, dev.Name(), client.SubmitOptions{Shots: smallShots, Timeline: tl})
		}
		end := time.Now()
		if err == nil {
			err = spec.check(res.Counts, smallShots)
		}
		p.done(end.Sub(start), err)
		if err == nil {
			if len(recorded) < recordedKernels {
				recorded = append(recorded, k)
			} else {
				recorded[n%recordedKernels] = k
			}
			if p.tr != nil {
				traceSingle(p.tr, n, start, built, built, end, tl)
			}
		}
		return ctx.Err()
	}
	e.direct = func(i int) (directJob, error) {
		k := recorded[i%len(recorded)]
		payload, format, err := cl.Compile(k, dev.Name())
		if err != nil {
			return directJob{}, err
		}
		var measured uint64
		for _, b := range k.MeasuredBits() {
			measured |= 1 << b
		}
		return directJob{shots: smallShots, measured: measured,
			submit: func() (qdmi.Job, error) { return dev.SubmitJob(payload, format, smallShots) }}, nil
	}
	return e, nil
}

// setupRemote serves a 1-site closed-system simulator on 127.0.0.1 and
// connects one RemoteAdapter, which registers the Rabi template once; a
// unit is one SubmitBoundCtx, cycling θ in seeded order.
func setupRemote(ctx context.Context, seed int64) (*env, error) {
	dev, err := tinyDevice("remote-q", 1, subSeed(seed, 7))
	if err != nil {
		return nil, err
	}
	cl, closeStack, err := newStack(dev)
	if err != nil {
		return nil, err
	}
	srv, err := client.NewServer(cl, "127.0.0.1:0")
	if err != nil {
		closeStack()
		return nil, err
	}
	closeServer := func() { srv.Close(); closeStack() }
	ra, err := client.NewRemoteAdapterCtx(ctx, srv.Addr())
	if err != nil {
		closeServer()
		return nil, err
	}
	closeAll := func() { ra.Close(); closeServer() }
	tpl, err := rabiTemplate()
	if err == nil {
		var compiled *ptemplate.Compiled
		if compiled, err = ptemplate.Lower(tpl, dev, dev.Name()); err == nil {
			if err = ra.RegisterTemplate(ctx, compiled); err == nil {
				return remoteEnv(cl, dev, ra, tpl, compiled, seed, closeAll), nil
			}
		}
	}
	closeAll()
	return nil, err
}

func remoteEnv(cl *client.Client, dev *devices.SimDevice, ra *client.RemoteAdapter, tpl *ptemplate.Template,
	compiled *ptemplate.Compiled, seed int64, closeAll func()) *env {

	angles, order := sweepAngles(sweepSize, subSeed(seed, 8))
	bindings := make([]ptemplate.Bindings, sweepSize)
	for i, j := range order {
		bindings[i] = ptemplate.Bindings{"theta": angles[j]}
	}
	check := newRabiCheck(angles, tinyFidelity)
	n := 0
	e := &env{cl: cl, dev: dev, close: closeAll, verify: check.verify,
		kernels: func() []*qpi.Circuit { return []*qpi.Circuit{tpl.Circuit} },
		direct:  sweepDirect(dev, compiled, bindings)}
	e.unit = func(ctx context.Context, p *phase) error {
		i := n % sweepSize
		var tl *telemetry.Timeline
		if p.tr != nil {
			tl = telemetry.NewTimeline("", nil)
		}
		start := time.Now()
		res, err := ra.SubmitBoundCtx(ctx, dev.Name(), compiled, bindings[i], client.SubmitOptions{Shots: smallShots, Timeline: tl})
		end := time.Now()
		if err == nil {
			err = check.add(order[i], res.Counts, smallShots)
		}
		p.done(end.Sub(start), err)
		if p.tr != nil && err == nil {
			traceSingle(p.tr, n, start, start, start, end, tl)
		}
		n++
		return ctx.Err()
	}
	return e
}
