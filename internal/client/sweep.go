package client

import (
	"context"
	"fmt"
	"time"

	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/telemetry"
)

// CompileTemplate lowers a parametric template against a device exactly
// once per (template fingerprint, device, calibration epoch) and serves
// every subsequent lookup from the lowering cache. Bound parameter values
// never enter the cache key, so an N-point sweep costs one compilation:
// the first lookup records a miss, the remaining N−1 record binds (see
// CacheStats.Binds), and a calibration-epoch bump invalidates the entry
// exactly like a concrete payload's.
func (c *Client) CompileTemplate(t *ptemplate.Template, device string) (*ptemplate.Compiled, error) {
	e, _, err := c.compileTemplate(t, device)
	if err != nil {
		return nil, err
	}
	return e.tpl, nil
}

// compileTemplate is CompileTemplate returning the template's cache entry
// plus a cache-hot flag: true when the lookup was served from a cached
// compiled template (a bind, not a compile).
func (c *Client) compileTemplate(t *ptemplate.Template, device string) (*cacheEntry, bool, error) {
	dev, epoch, err := c.deviceEpoch(device)
	if err != nil {
		return nil, false, err
	}
	key := ""
	if c.CacheEnabled {
		key = t.Fingerprint(device)
		if e := c.cacheLookup(key, epoch, true); e != nil {
			return e, true, nil
		}
	}
	compiled, err := ptemplate.Lower(t, dev, device)
	if err != nil {
		return nil, false, err
	}
	e := &cacheEntry{key: key, format: compiled.Format, epoch: compiled.Epoch, tpl: compiled}
	if key != "" {
		e = c.cacheInsert(e)
	}
	return e, false, nil
}

// SubmitSweepCtx enqueues one job per sweep point: the template lowers at
// most once (served cache-hot afterwards, see CompileTemplate) and each
// point ships as a (compiled template, bindings) pair that the scheduler
// binds at dispatch time — after the calibration-epoch gate. The returned
// slices are parallel to bindings; a point with an out-of-range or
// non-finite value fails in place with ptemplate.ErrBadParam before
// reaching the scheduler queue, without sinking its siblings.
func (c *Client) SubmitSweepCtx(ctx context.Context, t *ptemplate.Template, device string,
	bindings []ptemplate.Bindings, opts SubmitOptions) ([]*qrm.Ticket, []error) {

	tickets := make([]*qrm.Ticket, len(bindings))
	errs := make([]error, len(bindings))
	fail := func(err error) ([]*qrm.Ticket, []error) {
		for i := range errs {
			errs[i] = err
		}
		return tickets, errs
	}
	if opts.Shots <= 0 {
		opts.Shots = qpi.DefaultShots
	}
	if err := ctx.Err(); err != nil {
		return fail(fmt.Errorf("client: sweep: %w", err))
	}
	target, err := c.compileTarget(device, opts)
	if err != nil {
		return fail(err)
	}
	// One trace ID spans the sweep; each point gets its own timeline under
	// a /p<i> suffix so per-point stage latencies stay separable while the
	// fleet histograms see every point.
	sweepTrace := opts.TraceID
	if sweepTrace == "" {
		sweepTrace = telemetry.NewTraceID()
	}
	for i, b := range bindings {
		tl := telemetry.NewTimeline(fmt.Sprintf("%s/p%d", sweepTrace, i), c.telem)
		// Per-point template lookup: point 0 compiles, the rest bind. Going
		// through the cache each iteration (rather than hoisting one compile)
		// keeps a mid-sweep recalibration from dispatching stale points —
		// the invalidated entry recompiles at the new epoch.
		compileStart := time.Now()
		e, hot, err := c.compileTemplate(t, target)
		if err != nil {
			errs[i] = err
			continue
		}
		recordCompile(tl, target, compileStart, hot)
		req := newRequest(device, target, e, opts, tl)
		req.Bindings = b
		tickets[i], errs[i] = c.qrm.SubmitCtx(ctx, req)
	}
	return tickets, errs
}

// RunSweep submits every sweep point and waits for all of them — the
// synchronous calibration-loop entry point (Rabi, Ramsey, DRAG tune-ups).
// The result slice is parallel to bindings; per-point failures (including
// ptemplate.ErrBadParam validation rejections) surface in place.
func (c *Client) RunSweep(ctx context.Context, t *ptemplate.Template, device string,
	bindings []ptemplate.Bindings, opts SubmitOptions) ([]BatchResult, error) {

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("client: sweep: %w", err)
	}
	tickets, errs := c.SubmitSweepCtx(ctx, t, device, bindings, opts)
	out := make([]BatchResult, len(bindings))
	for i, tk := range tickets {
		if tk == nil {
			out[i].Err = errs[i]
			continue
		}
		res, err := tk.Wait(ctx)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Result = resultFromQDMI(res)
	}
	return out, nil
}
