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
// receiver (cluster.BatchSink). No producer writes to a batch after
// delivery: an in-process Cluster.EvalStream and a SiteClient.EvalStream
// against an httptest site run at once, as two units of a query do, every
// batch they deliver is kept, and once the streams have ended each must
// still equal the copy taken when it was delivered. A Joiner pushed to by
// one of each keeps its inputs only while they are open: once both have
// closed, every input batch has been handed back (Release leaves it
// empty), while every batch it emitted still equals its copy — the output
// is the receiver's. Under -race a late write also shows as a race.
func TestDeliveredBatchesStayTheReceivers(t *testing.T) {
	c, d, q := newTestCluster(t, 600)
	req := testRequest(q)
	_, hs := newSite(t, c, d, nil)
	cl := NewSiteClient(ClientConfig{BaseURL: hs.URL, Site: 0, Dict: d})
	ctx := context.Background()

	type kept struct {
		b    *match.Bindings
		rows []rdf.ID
	}
	var (
		mu     sync.Mutex
		all    []kept
		inputs []*match.Bindings
		rows   = map[string]int{}
	)
	keep := func(from string, b *match.Bindings) {
		mu.Lock()
		all = append(all, kept{b, slices.Clone(b.Rows)})
		rows[from] += b.Len()
		mu.Unlock()
	}
	sinkTo := func(from string, j *cluster.Joiner, left bool) cluster.BatchSink {
		return func(b *match.Bindings) error {
			if j == nil {
				keep(from, b)
				return nil
			}
			mu.Lock()
			inputs = append(inputs, b)
			rows[from] += b.Len()
			mu.Unlock()
			return j.Push(b, left)
		}
	}

	type unit struct {
		from string
		ev   cluster.SiteEval
		left bool
	}
	// run streams req from the units at once, each into the sink sinkTo
	// makes of it, and closes j's side as each ends.
	run := func(units []unit, j *cluster.Joiner) {
		var wg sync.WaitGroup
		errs := make(chan error, len(units))
		for _, u := range units {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- u.ev.EvalStream(ctx, req, 8, sinkTo(u.from, j, u.left))
				if j != nil {
					j.Close(u.left)
				}
			}()
		}
		wg.Wait()
		for range units {
			if err := <-errs; err != nil {
				t.Fatalf("EvalStream: %v", err)
			}
		}
	}
	run([]unit{{"cluster", c, false}, {"client", cl, false}}, nil)
	// A join of the subquery with itself: every row meets its own copy.
	run([]unit{{"join left", c, true}, {"join right", cl, false}}, cluster.NewJoiner(q.Vars(), q.Vars(), keeper{keep}))

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
	for i, b := range inputs {
		if b.Len() != 0 {
			t.Fatalf("join input %d of %d still holds %d rows after both inputs closed", i, len(inputs), b.Len())
		}
	}
}

// keeper is the stage after the join: it keeps what the join emits.
type keeper struct{ keep func(string, *match.Bindings) }

func (k keeper) Push(b *match.Bindings, _ bool) error {
	k.keep("join", b)
	return nil
}

func (keeper) Close(bool) {}
