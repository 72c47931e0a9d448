package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

func TestFaultKindString(t *testing.T) {
	want := map[FaultKind]string{
		FaultNone:     "none",
		FaultDrop:     "drop",
		FaultError:    "error",
		FaultCut:      "cut",
		FaultDelay:    "delay",
		FaultKind(99): "FaultKind(99)",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(k), got, s)
		}
	}
}

func TestNilChaosInjectsNothing(t *testing.T) {
	var c *Chaos
	if k := c.OnRequest(); k != FaultNone {
		t.Errorf("nil OnRequest = %v", k)
	}
	if k := c.OnBatch(); k != FaultNone {
		t.Errorf("nil OnBatch = %v", k)
	}
	if err := c.StragglerWait(context.Background(), 0); err != nil {
		t.Errorf("nil StragglerWait = %v", err)
	}
	if got := c.Counts(); got != (ChaosCounts{}) {
		t.Errorf("nil Counts = %+v", got)
	}
}

// TestChaosSeedDeterminism is the reproducibility contract: equal seeds
// and equal per-call-site message sequences inject identical fault
// sequences, and the counters reconcile exactly with the verdicts
// handed out.
func TestChaosSeedDeterminism(t *testing.T) {
	cfg := ChaosConfig{Seed: 17, Drop: 0.2, Error: 0.2, Cut: 0.3, DelayProb: 0.2}
	a, b := NewChaos(cfg), NewChaos(cfg)
	var counts ChaosCounts
	for i := 0; i < 500; i++ {
		ka, kb := a.OnRequest(), b.OnRequest()
		if ka != kb {
			t.Fatalf("request %d: %v != %v", i, ka, kb)
		}
		switch ka {
		case FaultDrop:
			counts.Drops++
		case FaultError:
			counts.Errors++
		case FaultDelay:
			counts.Delays++
		}
		ka, kb = a.OnBatch(), b.OnBatch()
		if ka != kb {
			t.Fatalf("batch %d: %v != %v", i, ka, kb)
		}
		switch ka {
		case FaultCut:
			counts.Cuts++
		case FaultDelay:
			counts.Delays++
		}
	}
	if got := a.Counts(); got != counts {
		t.Errorf("Counts() = %+v, observed %+v", got, counts)
	}
	if counts.Drops == 0 || counts.Errors == 0 || counts.Cuts == 0 || counts.Delays == 0 {
		t.Errorf("seeded run injected no faults of some kind: %+v", counts)
	}
	if got, want := counts.Disruptions(), counts.Drops+counts.Errors+counts.Cuts; got != want {
		t.Errorf("Disruptions() = %d, want %d", got, want)
	}
}

func TestStragglerWaitHonorsContext(t *testing.T) {
	c := NewChaos(ChaosConfig{StragglerDelay: Delay{PerMessage: time.Minute}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.StragglerWait(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled StragglerWait = %v, want context.Canceled", err)
	}
	// Zero-cost delay returns immediately (the idealized-network branch).
	free := NewChaos(ChaosConfig{})
	if err := free.StragglerWait(context.Background(), 4096); err != nil {
		t.Errorf("free StragglerWait = %v", err)
	}
}

// chaosCluster builds a one-site cluster holding one two-row fragment.
func chaosCluster(t *testing.T) (*Cluster, *sparql.Graph, *rdf.Graph) {
	t.Helper()
	c := New(1, 2)
	g := rdf.NewGraph(nil)
	g.AddTerms(rdf.NewIRI("a"), rdf.NewIRI("p"), rdf.NewIRI("b"))
	g.AddTerms(rdf.NewIRI("c"), rdf.NewIRI("p"), rdf.NewIRI("d"))
	if err := c.Place(0, 1, g); err != nil {
		t.Fatalf("Place: %v", err)
	}
	return c, sparql.MustParse(g.Dict, `SELECT ?x WHERE { ?x <p> ?y . }`), g
}

// TestChannelRPCFaultInjection drives every fault kind through the
// channel-RPC path — the same seam the HTTP transport consults — and
// reconciles the injected counts.
func TestChannelRPCFaultInjection(t *testing.T) {
	ctx := context.Background()
	req := func(c *Cluster) EvalRequest {
		return EvalRequest{SiteID: 0, FragIDs: []int{1}, Query: sparql.MustParse(c.Sites[0].frags[1].Dict, `SELECT ?x WHERE { ?x <p> ?y . }`)}
	}

	t.Run("drop", func(t *testing.T) {
		c, q, _ := chaosCluster(t)
		c.Faults = NewChaos(ChaosConfig{Drop: 1})
		if _, err := c.Eval(ctx, EvalRequest{SiteID: 0, FragIDs: []int{1}, Query: q}); !errors.Is(err, ErrInjected) {
			t.Fatalf("Eval under Drop=1 = %v, want ErrInjected", err)
		}
		if got := c.Faults.Counts(); got.Drops != 1 || got.Disruptions() != 1 {
			t.Errorf("counts = %+v, want 1 drop", got)
		}
	})

	t.Run("error", func(t *testing.T) {
		c, _, _ := chaosCluster(t)
		c.Faults = NewChaos(ChaosConfig{Error: 1})
		if err := c.EvalStream(ctx, req(c), 1, func(*match.Bindings) error { return nil }); !errors.Is(err, ErrInjected) {
			t.Fatalf("EvalStream under Error=1 = %v, want ErrInjected", err)
		}
		if got := c.Faults.Counts(); got.Errors != 1 {
			t.Errorf("counts = %+v, want 1 error", got)
		}
	})

	t.Run("cut", func(t *testing.T) {
		c, _, _ := chaosCluster(t)
		c.Faults = NewChaos(ChaosConfig{Cut: 1})
		delivered := 0
		err := c.EvalStream(ctx, req(c), 1, func(b *match.Bindings) error { delivered += b.Len(); return nil })
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("EvalStream under Cut=1 = %v, want ErrInjected", err)
		}
		if delivered != 0 {
			t.Errorf("cut batch still delivered %d rows", delivered)
		}
		if got := c.Faults.Counts(); got.Cuts == 0 {
			t.Errorf("counts = %+v, want cuts > 0", got)
		}
	})

	t.Run("delay", func(t *testing.T) {
		c, q, _ := chaosCluster(t)
		c.Latency = Delay{PerMessage: time.Microsecond}
		c.Faults = NewChaos(ChaosConfig{DelayProb: 1, StragglerDelay: Delay{PerMessage: time.Millisecond}})
		b, err := c.Eval(ctx, EvalRequest{SiteID: 0, FragIDs: []int{1}, Query: q})
		if err != nil {
			t.Fatalf("Eval under DelayProb=1: %v", err)
		}
		if b.Len() != 2 {
			t.Fatalf("rows = %d, want 2 (delays slow but do not fail)", b.Len())
		}
		if got := c.Faults.Counts(); got.Delays < 2 || got.Disruptions() != 0 {
			t.Errorf("counts = %+v, want ≥2 delays and no disruptions", got)
		}
	})

	t.Run("sink error stops stream", func(t *testing.T) {
		c, _, _ := chaosCluster(t)
		sinkErr := errors.New("consumer rejected batch")
		if err := c.EvalStream(ctx, req(c), 1, func(*match.Bindings) error { return sinkErr }); !errors.Is(err, sinkErr) {
			t.Fatalf("EvalStream sink error = %v, want %v", err, sinkErr)
		}
	})

	t.Run("stream errors", func(t *testing.T) {
		c, _, _ := chaosCluster(t)
		q := sparql.MustParse(rdf.NewDict(), `SELECT ?x WHERE { ?x <p> ?y . }`)
		sink := func(*match.Bindings) error { return nil }
		if err := c.EvalStream(ctx, EvalRequest{SiteID: 5, Query: q}, 1, sink); err == nil {
			t.Error("out-of-range site accepted")
		}
		if err := c.EvalStream(ctx, EvalRequest{SiteID: 0, FragIDs: []int{9}, Query: q}, 1, sink); err == nil {
			t.Error("missing fragment accepted")
		}
	})
}

func TestNetStatsReset(t *testing.T) {
	c, q, _ := chaosCluster(t)
	if _, err := c.Eval(context.Background(), EvalRequest{SiteID: 0, FragIDs: []int{1}, Query: q}); err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if msgs, _ := c.Net.Snapshot(); msgs == 0 {
		t.Fatal("Eval recorded no traffic")
	}
	c.Net.Reset()
	if msgs, bytes := c.Net.Snapshot(); msgs != 0 || bytes != 0 {
		t.Errorf("after Reset: messages=%d bytes=%d, want 0/0", msgs, bytes)
	}
}

// TestViewsRegisterASharedGraphOnce: fragments that share their site's
// graph share its registration, so the view source's gauges count the
// graph once.
func TestViewsRegisterASharedGraphOnce(t *testing.T) {
	c, _, g := chaosCluster(t)
	if c.Views() == nil {
		t.Fatal("Views() = nil")
	}
	before := c.Views().Generations()
	if err := c.Place(0, 2, g); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if got := c.Views().Generations(); got != before || got != g.LiveGenerations() {
		t.Errorf("a second fragment of one graph moved the generation gauge %d -> %d (graph: %d)", before, got, g.LiveGenerations())
	}
}

// TestFragEpoch checks the resume fingerprint: it must move when the
// fragment data moves (so a resuming client restarts instead of stitching
// incomparable batch prefixes) and hold still otherwise.
func TestFragEpoch(t *testing.T) {
	c, _, g := chaosCluster(t)
	e1, err := c.FragEpoch(0, []int{1})
	if err != nil {
		t.Fatalf("FragEpoch: %v", err)
	}
	e2, err := c.FragEpoch(0, []int{1})
	if err != nil || e2 != e1 {
		t.Fatalf("stable FragEpoch moved: %d -> %d (err %v)", e1, e2, err)
	}
	g.AddTerms(rdf.NewIRI("e"), rdf.NewIRI("p"), rdf.NewIRI("f"))
	e3, err := c.FragEpoch(0, []int{1})
	if err != nil {
		t.Fatalf("FragEpoch after add: %v", err)
	}
	if e3 == e1 {
		t.Errorf("FragEpoch unchanged after mutation (%d)", e3)
	}
	// A second fragment of the same graph adds nothing to the sum.
	if err := c.Place(0, 2, g); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if e4, err := c.FragEpoch(0, []int{1, 2}); err != nil || e4 != g.Epoch() {
		t.Errorf("FragEpoch of two fragments of one graph = %d (err %v), want the graph's epoch %d", e4, err, g.Epoch())
	}
	if _, err := c.FragEpoch(7, nil); err == nil {
		t.Error("out-of-range site accepted")
	}
	if _, err := c.FragEpoch(0, []int{42}); err == nil {
		t.Error("missing fragment accepted")
	}
}
