package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the metric tables must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		found := false
		for _, known := range workloads {
			found = found || known.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: BENCHMARK.json %d+%d, benchmark %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i][0] || m.Unit != endToEnd[i][1] {
			t.Errorf("end_to_end %d: BENCHMARK.json %s/%s, benchmark %v", i, m.Name, m.Unit, endToEnd[i])
		}
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i][0] || m.Unit != perLayer[i][1] {
			t.Errorf("per_layer %d: BENCHMARK.json %s/%s, benchmark %v", i, m.Name, m.Unit, perLayer[i])
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced. It checks
// that the result line carries every metric with its unit and a finite
// value, that the exit code agrees with the result, and that the outputs
// were correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up every workload twice")
	}
	b := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0.3", "--trace", trace, "--out", t.TempDir()}
				code := run(args, &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("exit code %d, no result line: %v\n%s", code, err, out.String())
				}
				want := b.EndToEnd
				if trace == "1" {
					want = b.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s: %+v (present %v), want unit %s and a finite value", m.Name, got, ok, m.Unit)
					}
				}
				if (code == 0) != r.Correct || r.Attempted < 1 {
					t.Errorf("exit code %d with result %+v", code, r)
				}
				if !r.Correct || r.Failed != 0 {
					t.Errorf("%d of %d jobs failed their output check", r.Failed, r.Attempted)
				}
			})
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "bell_density", "--trace", "2"},
		{"--workload", "bell_density", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}

func TestCheckCountsRejectsCorruption(t *testing.T) {
	if err := checkCounts(map[uint64]int{0: 10, 3: 6}, 16, 0b11); err != nil {
		t.Fatalf("clean counts rejected: %v", err)
	}
	for name, counts := range map[string]map[uint64]int{
		"short":         {0: 10, 3: 5},
		"long":          {0: 10, 3: 7},
		"unmeasured":    {0: 10, 4: 6},
		"negative":      {0: 17, 3: -1},
		"wrong bit set": {0: 10, 2: 6},
	} {
		measured := uint64(0b11)
		if name == "wrong bit set" {
			measured = 0b01
		}
		if err := checkCounts(counts, 16, measured); err == nil {
			t.Errorf("%s: %v accepted", name, counts)
		}
	}
}

func TestCheckKnownRejectsWrongOutcome(t *testing.T) {
	if err := checkKnown(map[uint64]int{0b10: 15, 0b11: 1}, 16, 0b10); err != nil {
		t.Fatalf("clean counts rejected: %v", err)
	}
	for name, counts := range map[string]map[uint64]int{
		"swapped bits": {0b01: 15, 0b11: 1},
		"half":         {0b10: 8, 0b00: 8},
		"missing":      {0b00: 16},
	} {
		if err := checkKnown(counts, 16, 0b10); err == nil {
			t.Errorf("%s: %v accepted", name, counts)
		}
	}
}

// TestChurnSpecsVaryMeasurement checks that the generator draws the
// measured qubits, their classical bits and the measurement order from
// the seed, so the per-job checks see every mapping, and that a share of
// kernels has a known outcome inside the measured mask.
func TestChurnSpecsVaryMeasurement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	masks := map[uint64]bool{}
	swapped, reordered, known := false, false, 0
	const n = 400
	for i := 0; i < n; i++ {
		s := nextChurnSpec(rng, i)
		if s.measured == 0 || s.want&^s.measured != 0 {
			t.Fatalf("spec %d: measured %b, want %b", i, s.measured, s.want)
		}
		masks[s.measured] = true
		for j, m := range s.meas {
			swapped = swapped || m[0] != m[1]
			reordered = reordered || (j > 0 && m[0] < s.meas[j-1][0])
		}
		if s.known {
			known++
		}
	}
	if len(masks) != 3 || !swapped || !reordered {
		t.Errorf("masks %v, swapped %v, reordered %v: want all three masks and both", masks, swapped, reordered)
	}
	if known < n/knownShare/2 || known > 2*n/knownShare {
		t.Errorf("%d of %d known kernels, want about 1 in %d", known, n, knownShare)
	}
}

func TestBellCheckRejectsCorruptedPool(t *testing.T) {
	expect := bellFloor(0.991, 0.985, 300e-9, 80e-6, 60e-6)
	good := &bellCheck{expect: expect}
	bad := &bellCheck{expect: expect}
	for i := 0; i < 200; i++ {
		// 63/64 parity-correct shots is what the device delivers; 56/64
		// is a corrupted pool (12.5% odd parity).
		if err := good.add(map[uint64]int{0: 31, 3: 32, 1: 1}, 64); err != nil {
			t.Fatal(err)
		}
		if err := bad.add(map[uint64]int{0: 28, 3: 28, 1: 4, 2: 4}, 64); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := good.verify(); n != 0 || err != nil {
		t.Errorf("clean pool condemned %d jobs: %v", n, err)
	}
	if n, err := bad.verify(); n != 200 || err == nil {
		t.Errorf("corrupted pool condemned %d jobs (%v), want all 200", n, err)
	}
}

func TestRabiCheckRejectsCorruptedAngle(t *testing.T) {
	angles, _ := sweepAngles(sweepSize, 1)
	good := newRabiCheck(angles, tinyFidelity)
	bad := newRabiCheck(angles, tinyFidelity)
	const jobs, shots = 400, 16
	for i, theta := range angles {
		ones := int(math.Round(good.expect(theta) * jobs * shots))
		for j := 0; j < jobs; j++ {
			// Spread the expected ones evenly over the jobs.
			k := ones*(j+1)/jobs - ones*j/jobs
			if err := good.add(i, map[uint64]int{0: shots - k, 1: k}, shots); err != nil {
				t.Fatal(err)
			}
			if i == 10 {
				k = shots - k // one angle reads inverted
			}
			if err := bad.add(i, map[uint64]int{0: shots - k, 1: k}, shots); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, err := good.verify(); n != 0 || err != nil {
		t.Errorf("clean sweep condemned %d jobs: %v", n, err)
	}
	if n, err := bad.verify(); n != jobs || err == nil {
		t.Errorf("corrupted sweep condemned %d jobs (%v), want the %d of one angle", n, err, jobs)
	}
}

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

// TestSelfTimeOfNestedSpans checks the self-time arithmetic on a job whose
// compile span nests a cache child and whose dispatch span holds two
// overlapping children and a gap.
func TestSelfTimeOfNestedSpans(t *testing.T) {
	tree := &jobTree{}
	job := tree.add(jobSpan, "j", 0, us(0), us(100))
	call := tree.add(submitSpan, "j", job, us(5), us(100))
	compile := tree.add("compile", "j", call, us(10), us(30))
	tree.add("cache-miss", "j", compile, us(10), us(30))
	tree.add("queue-wait", "j", call, us(30), us(40))
	dispatch := tree.add("dispatch", "j", call, us(40), us(95))
	tree.add("device-execute", "j", dispatch, us(45), us(80))
	tree.add("readout-post", "j", dispatch, us(70), us(90)) // overlaps device-execute by 10µs

	got := selfTimes(tree.spans, childIndex(tree.spans))
	want := map[string]time.Duration{
		jobSpan: us(5), submitSpan: us(10), "compile": 0, "cache-miss": us(20),
		"queue-wait": us(10), "dispatch": us(10), "device-execute": us(35), "readout-post": us(20),
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}

	tr := newTracer()
	tr.fold(tree)
	var sum time.Duration
	for _, d := range tr.path {
		sum += d
	}
	if sum != us(100) || tr.latency != us(100) || tr.jobs != 1 {
		t.Errorf("blocking path sums to %v over %d jobs (latency %v), want 100µs over 1", sum, tr.jobs, tr.latency)
	}
	// Walking back from 95µs the readout span (ends 90) blocks first, then
	// device-execute up to where readout starts (70).
	if tr.path["readout-post"] != us(20) || tr.path["device-execute"] != us(25) {
		t.Errorf("blocking path %v", tr.path)
	}
}

// TestBlockingPathThroughSharedCall checks a sweep point whose result
// waited on the sweep call still submitting: the opaque call span takes
// the part of the path before the point's own spans.
func TestBlockingPathThroughSharedCall(t *testing.T) {
	tree := &jobTree{}
	burst := tree.add(burstSpan, "b", 0, us(0), us(60))
	call := tree.add(submitSpan, "b", burst, us(0), us(50))
	tree.add("compile", "b/p0", call, us(0), us(10))
	early := tree.add(jobSpan, "b/p0", burst, us(0), us(52))
	tree.add("queue-wait", "b/p0", early, us(10), us(12))
	tree.add("dispatch", "b/p0", early, us(12), us(20))
	late := tree.add(jobSpan, "b/p1", burst, us(0), us(60))
	tree.add("queue-wait", "b/p1", late, us(20), us(45))
	tree.add("dispatch", "b/p1", late, us(45), us(59))

	tr := newTracer()
	tr.fold(tree, call)
	want := map[string]time.Duration{
		// p0 finished while the call still submitted: call 0–50, then 2µs
		// unexplained; p1: call 0–20, queue-wait 20–45, dispatch 45–59,
		// 1µs unexplained.
		submitSpan: us(70), jobSpan: us(3), "queue-wait": us(25), "dispatch": us(14),
	}
	for name, w := range want {
		if tr.path[name] != w {
			t.Errorf("path(%s) = %v, want %v (all: %v)", name, tr.path[name], w, tr.path)
		}
	}
	if tr.latency != us(112) || tr.jobs != 2 {
		t.Errorf("latency %v over %d jobs, want 112µs over 2", tr.latency, tr.jobs)
	}
}
