package cluster

// Deterministic fault injection for the networked site RPC. Chaos rolls
// failures (drops, injected errors, mid-stream cuts, straggler delays);
// the HTTP transport (internal/transport) consults it around its request
// and batch writes, and the straggler delay reuses the cluster's Delay
// timer, so the simulated network is shaped by one implementation.
//
// Faults are drawn from a seeded PRNG, so a soak run with a fixed seed
// injects a reproducible fault sequence (per call site; interleaving
// across concurrent requests follows the scheduler). Every injected
// fault is counted, letting harnesses reconcile client-side
// retry/failure counters against the number of faults actually
// injected.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// FaultKind classifies one injected fault.
type FaultKind int

const (
	// FaultNone means the message passes unharmed.
	FaultNone FaultKind = iota
	// FaultDrop loses a request before evaluation starts (the site
	// never sees it; the caller gets an error in place of a response).
	FaultDrop
	// FaultError fails a request after evaluation may have started
	// (an explicit error response).
	FaultError
	// FaultCut tears a response stream mid-way: some batches are
	// delivered, then the connection dies without a terminal frame.
	FaultCut
	// FaultDelay stalls a message by the configured straggler delay
	// without failing it.
	FaultDelay
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultError:
		return "error"
	case FaultCut:
		return "cut"
	case FaultDelay:
		return "delay"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// ChaosConfig tunes deterministic fault injection. The zero value
// injects nothing. Probabilities are in [0,1] and are evaluated
// independently per message: Drop and Error on each request, Cut and
// Delay on each streamed batch (Delay also on requests).
type ChaosConfig struct {
	// Seed seeds the fault PRNG; runs with equal seeds and equal
	// per-call-site message sequences inject identical fault sequences.
	Seed int64
	// Drop is the probability a request is lost before evaluation.
	Drop float64
	// Error is the probability a request fails with an explicit error.
	Error float64
	// Cut is the probability, per streamed batch, that the stream is
	// torn after that batch (delivered batches stand; no terminal
	// frame follows).
	Cut float64
	// DelayProb is the probability, per message, of an extra straggler
	// delay of StragglerDelay.
	DelayProb float64
	// StragglerDelay is the extra shaping paid when DelayProb fires,
	// expressed with the same Delay type the cluster's baseline
	// latency uses (one timer implementation for both).
	StragglerDelay Delay
}

// ChaosCounts is a snapshot of the faults injected so far, by kind.
type ChaosCounts struct {
	Drops, Errors, Cuts, Delays uint64
}

// Disruptions is the number of injected faults that failed a call
// (drops, errors and cuts; straggler delays slow but do not fail).
func (c ChaosCounts) Disruptions() uint64 { return c.Drops + c.Errors + c.Cuts }

// Chaos injects seeded faults. Safe for concurrent use; the PRNG is
// mutex-protected so concurrent rolls serialize (determinism of the
// fault sequence then depends only on message arrival order).
type Chaos struct {
	cfg ChaosConfig

	mu  sync.Mutex
	rng *rand.Rand

	drops  atomic.Uint64
	errs   atomic.Uint64
	cuts   atomic.Uint64
	delays atomic.Uint64
}

// NewChaos builds an injector from cfg. A nil *Chaos is valid and
// injects nothing, so callers hold an optional Chaos without nil checks.
func NewChaos(cfg ChaosConfig) *Chaos {
	return &Chaos{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (c *Chaos) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	c.mu.Lock()
	ok := c.rng.Float64() < p
	c.mu.Unlock()
	return ok
}

// OnRequest rolls the fault for one incoming request: FaultDrop,
// FaultError, FaultDelay or FaultNone. The caller applies the verdict
// (and, for FaultDelay, waits StragglerWait before proceeding).
func (c *Chaos) OnRequest() FaultKind {
	if c == nil {
		return FaultNone
	}
	switch {
	case c.roll(c.cfg.Drop):
		c.drops.Add(1)
		return FaultDrop
	case c.roll(c.cfg.Error):
		c.errs.Add(1)
		return FaultError
	case c.roll(c.cfg.DelayProb):
		c.delays.Add(1)
		return FaultDelay
	}
	return FaultNone
}

// OnBatch rolls the fault for one streamed response batch: FaultCut,
// FaultDelay or FaultNone.
func (c *Chaos) OnBatch() FaultKind {
	if c == nil {
		return FaultNone
	}
	switch {
	case c.roll(c.cfg.Cut):
		c.cuts.Add(1)
		return FaultCut
	case c.roll(c.cfg.DelayProb):
		c.delays.Add(1)
		return FaultDelay
	}
	return FaultNone
}

// StragglerWait pays the straggler delay for a FaultDelay verdict,
// honouring ctx. It reuses the cluster's Delay timer implementation —
// the shared seam that keeps benchmark shaping and fault-test stalls on
// one code path.
func (c *Chaos) StragglerWait(ctx context.Context, bytes int) error {
	if c == nil {
		return nil
	}
	return c.cfg.StragglerDelay.wait(ctx, bytes)
}

// Counts snapshots the injected-fault counters.
func (c *Chaos) Counts() ChaosCounts {
	if c == nil {
		return ChaosCounts{}
	}
	return ChaosCounts{
		Drops:  c.drops.Load(),
		Errors: c.errs.Load(),
		Cuts:   c.cuts.Load(),
		Delays: c.delays.Load(),
	}
}
