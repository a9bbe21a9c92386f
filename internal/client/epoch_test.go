package client

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
)

// TestLoweringCacheEpochInvalidation: recalibrating the target invalidates
// the cached lowering; an unchanged target keeps hitting it.
func TestLoweringCacheEpochInvalidation(t *testing.T) {
	c, dev := testStack(t)
	k := bell(t)
	for i := 0; i < 2; i++ {
		if _, _, err := c.Compile(k, "hpcqc-sc"); err != nil {
			t.Fatal(err)
		}
	}
	st := c.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("warm cache: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}

	dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)*0.9)
	if _, _, err := c.Compile(k, "hpcqc-sc"); err != nil {
		t.Fatal(err)
	}
	st = c.CacheStats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.Hits != 1 {
		t.Fatalf("stale entry served after recalibration: hits = %d", st.Hits)
	}

	// The recompiled entry serves hits again while calibration holds.
	if _, _, err := c.Compile(k, "hpcqc-sc"); err != nil {
		t.Fatal(err)
	}
	if got := c.CacheStats().Hits; got != 2 {
		t.Fatalf("post-recompile hit not served: hits = %d", got)
	}
}

// TestLoweringCacheBounded churns 10k distinct kernels through a 64-entry
// cache and checks the LRU bound holds throughout.
func TestLoweringCacheBounded(t *testing.T) {
	c, _ := testStack(t)
	const limit, kernels = 64, 10000
	c.SetCacheLimit(limit)
	for i := 0; i < kernels; i++ {
		k := qpi.NewCircuit(fmt.Sprintf("churn-%d", i), 1, 0).RZ(0, 0.25)
		if err := k.End(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Compile(k, "hpcqc-sc"); err != nil {
			t.Fatal(err)
		}
		if n := c.CacheStats().Entries; n > limit {
			t.Fatalf("after %d compiles: %d entries > bound %d", i+1, n, limit)
		}
	}
	st := c.CacheStats()
	if st.Entries != limit {
		t.Fatalf("steady-state entries = %d, want %d", st.Entries, limit)
	}
	if st.Evictions != kernels-limit {
		t.Fatalf("evictions = %d, want %d", st.Evictions, kernels-limit)
	}

	// LRU order: the most recent kernel survives churn, the first is gone.
	last := qpi.NewCircuit(fmt.Sprintf("churn-%d", kernels-1), 1, 0).RZ(0, 0.25)
	_ = last.End()
	if _, _, err := c.Compile(last, "hpcqc-sc"); err != nil {
		t.Fatal(err)
	}
	if got := c.CacheStats().Hits; got != 1 {
		t.Fatalf("most-recent entry evicted: hits = %d", got)
	}
	// Shrinking the limit evicts down immediately.
	c.SetCacheLimit(8)
	if st := c.CacheStats(); st.Entries != 8 || st.Limit != 8 {
		t.Fatalf("after SetCacheLimit(8): entries=%d limit=%d", st.Entries, st.Limit)
	}
}

// TestDispatchRejectsStaleEpoch: a payload queued before a recalibration
// must fail with ErrStaleCalibration instead of executing stale pulses.
func TestDispatchRejectsStaleEpoch(t *testing.T) {
	c, dev := testStack(t)
	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	compiledAt := dev.CalibrationEpoch()
	dev.SetCalibratedFrequency(0, dev.CalibratedFrequency(0)+1e3)

	tk, err := c.QRM().SubmitCtx(context.Background(), qrm.Request{
		Device: "hpcqc-sc", Payload: payload, Format: format, Shots: 10,
		CalibrationEpoch: compiledAt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, qrm.ErrStaleCalibration) {
		t.Fatalf("stale payload dispatched: err = %v", err)
	}

	// The current epoch dispatches normally, and epoch zero opts out.
	for _, epoch := range []int64{dev.CalibrationEpoch(), 0} {
		tk, err := c.QRM().SubmitCtx(context.Background(), qrm.Request{
			Device: "hpcqc-sc", Payload: payload, Format: format, Shots: 10,
			CalibrationEpoch: epoch,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("epoch %d rejected: %v", epoch, err)
		}
	}
}

// TestRemoteStaleCalibrationCrossesWire: the server rejects a payload
// declared against a superseded epoch and the typed sentinel survives the
// wire.
func TestRemoteStaleCalibrationCrossesWire(t *testing.T) {
	c, dev := testStack(t)
	srv, err := NewServer(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	remote, err := NewRemoteAdapterCtx(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remote.Close)

	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := SubmitOptions{Shots: 10, CalibrationEpoch: dev.CalibrationEpoch()}
	if _, err := remote.SubmitPayloadCtx(ctx, "hpcqc-sc", payload, format, opts); err != nil {
		t.Fatalf("fresh epoch rejected: %v", err)
	}

	dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)*0.9)
	_, err = remote.SubmitPayloadCtx(ctx, "hpcqc-sc", payload, format, opts)
	if !errors.Is(err, qrm.ErrStaleCalibration) {
		t.Fatalf("stale epoch accepted across the wire: err = %v", err)
	}
}
