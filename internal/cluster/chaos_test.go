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

// TestChannelRPCFaultInjection drives the channel-RPC path's failure
// modes — a sink rejecting a batch, an out-of-range site, a missing
// fragment — and checks each surfaces as the call's error.
func TestChannelRPCFaultInjection(t *testing.T) {
	ctx := context.Background()
	req := func(c *Cluster) EvalRequest {
		return EvalRequest{SiteID: 0, FragIDs: []int{1}, Query: sparql.MustParse(c.Sites[0].frags[1].Dict, `SELECT ?x WHERE { ?x <p> ?y . }`)}
	}

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
