package transport

import (
	"context"
	"slices"
	"sync"
	"testing"

	"rdffrag/internal/cluster"
	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
)

// TestDeliveredBatchesStayTheReceivers: a delivered batch belongs to its
// receiver (cluster.BatchSink), and the control-site join reads the
// batches it keeps until it ends, so no producer may write to one after
// handing it over. Every batch three producers deliver is kept — an
// in-process Cluster.EvalStream, a SiteClient.EvalStream against an
// httptest site, and a JoinStream stage fed by one of each — and once the
// streams have ended each must still equal the copy taken when it was
// delivered. Under -race a late write also shows as a race.
func TestDeliveredBatchesStayTheReceivers(t *testing.T) {
	c, d, q := newTestCluster(t, 600)
	req := testRequest(q)
	req.Parallelism = 4 // matcher morsel workers fill batches concurrently
	_, hs := newSite(t, c, d, nil)
	cl := NewSiteClient(ClientConfig{BaseURL: hs.URL, Site: 0, Dict: d})
	ctx := context.Background()

	type kept struct {
		b    *match.Bindings
		rows []rdf.ID
	}
	var (
		mu   sync.Mutex
		all  []kept
		rows = map[string]int{}
	)
	keep := func(from string, b *match.Bindings) {
		mu.Lock()
		all = append(all, kept{b, slices.Clone(b.Rows)})
		rows[from] += b.Len()
		mu.Unlock()
	}
	sinkTo := func(from string, ch chan<- *match.Bindings) cluster.BatchSink {
		return func(b *match.Bindings) error {
			keep(from, b)
			if ch != nil {
				ch <- b
			}
			return nil
		}
	}

	if err := c.EvalStream(ctx, req, 8, sinkTo("cluster", nil)); err != nil {
		t.Fatalf("in-process EvalStream: %v", err)
	}
	if err := cl.EvalStream(ctx, req, 8, sinkTo("client", nil)); err != nil {
		t.Fatalf("EvalStream over HTTP: %v", err)
	}

	// A join of the subquery with itself: every row meets its own copy.
	left, right := make(chan *match.Bindings), make(chan *match.Bindings)
	out := make(chan *match.Bindings)
	errs := make(chan error, 2)
	go func() {
		defer close(left)
		errs <- c.EvalStream(ctx, req, 8, sinkTo("join left", left))
	}()
	go func() {
		defer close(right)
		errs <- cl.EvalStream(ctx, req, 8, sinkTo("join right", right))
	}()
	go cluster.JoinStream(ctx, q.Vars(), q.Vars(), left, right, out)
	for b := range out {
		keep("join", b)
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatalf("join input: %v", err)
		}
	}

	for from, n := range rows {
		if n != 600 {
			t.Errorf("%s delivered %d rows, want 600", from, n)
		}
	}
	for i, k := range all {
		if !slices.Equal(k.b.Rows, k.rows) {
			t.Fatalf("batch %d of %d changed after it was delivered", i, len(all))
		}
	}
}
