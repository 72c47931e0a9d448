package rdffrag

// Term IDs have one writer: past deployment, only an applied update batch
// adds a term to the dictionary, and it does so in log order. A query
// resolves its constants without adding any — on the control site and on
// a remote site alike — so a read cannot grow memory or a checkpoint, and
// recovery assigns every term the ID the live run gave it.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// remoteFixture deploys the soak data three times: once embedded and
// served in-process, once as a fragment host's own copy, and once served
// through that host.
type remoteFixture struct {
	dep, siteDep, rdep *Deployment
	local, remote      *Server
}

func newRemoteFixture(t *testing.T) *remoteFixture {
	t.Helper()
	f := &remoteFixture{dep: deploySoak(t, 3, 60), siteDep: deploySoak(t, 3, 60), rdep: deploySoak(t, 3, 60)}
	site := httptest.NewServer(f.siteDep.SiteHandler(SiteConfig{}))
	t.Cleanup(site.Close)
	f.local = f.dep.StartServer(ServerConfig{Workers: 2, SweepInterval: -1})
	f.remote = f.rdep.StartServer(ServerConfig{Workers: 2, Remote: RemoteConfig{Sites: allRemote(f.rdep, site.URL)}})
	t.Cleanup(f.local.Close)
	t.Cleanup(f.remote.Close)
	return f
}

// post sends q to h's /query in format and returns the status and body.
func post(h http.Handler, format, q string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?format="+format, strings.NewReader(q)))
	return rec.Code, rec.Body.String()
}

// TestReadsWriteNothing: 1 000 queries naming constants the data has never
// held — as subject, object and predicate — through every read entry
// point (the embedded Deployment, Server.Query, /query, a server whose
// sites are remote) add no term to the control's dictionary or the site's,
// and no byte to a checkpoint.
func TestReadsWriteNothing(t *testing.T) {
	f := newRemoteFixture(t)
	ctx := context.Background()
	dicts := []*Deployment{f.dep, f.siteDep, f.rdep}
	lens := make([]int, len(dicts))
	for i, dep := range dicts {
		lens[i] = dep.db.graph.Dict.Len()
	}
	saved := func() int {
		var buf bytes.Buffer
		if err := f.local.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	before := saved()
	shapes := []string{
		`SELECT ?x WHERE { ?x <name> "nobody %d" . }`,
		`SELECT ?y ?n WHERE { <Ghost%d> <knows> ?y . ?y <name> ?n . }`,
		`SELECT ?x ?y WHERE { ?x <rival%d> ?y . ?x <name> ?n . }`,
	}
	entries := []func(q string) (int, error){
		func(q string) (int, error) { res, err := f.dep.Query(q); return rowsOf(res), err },
		func(q string) (int, error) { res, err := f.local.Query(ctx, q); return rowsOf(res), err },
		func(q string) (int, error) { res, err := f.remote.Query(ctx, q); return rowsOf(res), err },
		func(q string) (int, error) {
			code, body := post(f.local.Handler(), "tsv", q)
			if code != http.StatusOK {
				return 0, fmt.Errorf("/query answered %d: %s", code, body)
			}
			return strings.Count(body, "\n") - 1, nil
		},
	}
	for i := range 1000 {
		q := fmt.Sprintf(shapes[i%len(shapes)], i)
		if n, err := entries[i%len(entries)](q); err != nil || n != 0 {
			t.Fatalf("%s through entry point %d: %d rows, err %v", q, i%len(entries), n, err)
		}
	}
	for i, dep := range dicts {
		if got := dep.db.graph.Dict.Len(); got != lens[i] {
			t.Errorf("deployment %d's dictionary went from %d to %d terms", i, lens[i], got)
		}
	}
	if after := saved(); after != before {
		t.Errorf("a checkpoint went from %d to %d bytes", before, after)
	}
}

func rowsOf(res *Result) int {
	if res == nil {
		return -1
	}
	return len(res.Rows)
}

// TestAbsentConstantAnswersNoRows: a query naming a term the data has
// never held, in subject, object or predicate position, answers its
// projected header and no rows — the bytes the engine answered when the
// parser still interned the term and ran the query — embedded, served and
// through remote sites, in every result format. It runs no subquery and
// calls no site, and Explain plans it without a step.
func TestAbsentConstantAnswersNoRows(t *testing.T) {
	f := newRemoteFixture(t)
	ctx := context.Background()
	for _, tc := range []struct {
		query string
		vars  []string
	}{
		{`SELECT ?y ?n WHERE { <Ghost> <knows> ?y . ?y <name> ?n . }`, []string{"y", "n"}},
		{`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <interest> <I99> . }`, []string{"x", "n"}},
		{`SELECT * WHERE { ?x <rival> ?y . }`, []string{"x", "y"}},
		{`SELECT ?x ?gone WHERE { ?x <name> "nobody" . }`, []string{"x"}},
	} {
		var calls uint64
		for _, sm := range f.remote.Metrics().Sites {
			calls += sm.Calls
		}
		for name, answer := range map[string]func() (*Result, error){
			"embedded": func() (*Result, error) { return f.dep.Query(tc.query) },
			"served":   func() (*Result, error) { return f.local.Query(ctx, tc.query) },
			"remote":   func() (*Result, error) { return f.remote.Query(ctx, tc.query) },
		} {
			res, err := answer()
			if err != nil {
				t.Fatalf("%s %s: %v", name, tc.query, err)
			}
			if !slices.Equal(res.Vars, tc.vars) || len(res.Rows) != 0 || res.Stats.Subqueries != 0 || res.Stats.SitesTouched != 0 {
				t.Fatalf("%s %s: header %v, %d rows, stats %+v; want header %v, no rows, no subquery", name, tc.query, res.Vars, len(res.Rows), res.Stats, tc.vars)
			}
		}
		want := map[string]string{
			"json": `{"head":{"vars":["` + strings.Join(tc.vars, `","`) + `"]},"results":{"bindings":[` + "\n]}}\n",
			"csv":  strings.Join(tc.vars, ",") + "\n",
			"tsv":  "?" + strings.Join(tc.vars, "\t?") + "\n",
		}
		for format, body := range want {
			for _, srv := range []*Server{f.local, f.remote} {
				if code, got := post(srv.Handler(), format, tc.query); code != http.StatusOK || got != body {
					t.Errorf("%s as %s: %d %q, want %q", tc.query, format, code, got, body)
				}
			}
		}
		var after uint64
		for _, sm := range f.remote.Metrics().Sites {
			after += sm.Calls
		}
		if after != calls {
			t.Errorf("%s called remote sites %d times", tc.query, after-calls)
		}
		ex, err := f.dep.Explain(tc.query)
		if err != nil || len(ex.Subqueries) != 0 {
			t.Errorf("Explain(%s) = %v, err %v; want no step", tc.query, ex, err)
		}
	}
}

// TestSelectStarHeadsSortedVars: a SELECT * answer is headed by the
// query's variables in sorted order, the order q.Vars() lists them —
// whatever order the plan joins its subqueries in, and also when an
// absent constant leaves nothing to join — embedded, served and through
// remote sites. The same patterns written in reverse answer the same
// table, column for column.
func TestSelectStarHeadsSortedVars(t *testing.T) {
	f := newRemoteFixture(t)
	ctx := context.Background()
	want := []string{"i", "n", "x", "y"}
	for name, answer := range map[string]func(string) (*Result, error){
		"embedded": f.dep.Query,
		"served":   func(q string) (*Result, error) { return f.local.Query(ctx, q) },
		"remote":   func(q string) (*Result, error) { return f.remote.Query(ctx, q) },
	} {
		var tables []*Result
		for _, q := range []string{
			`SELECT * WHERE { ?x <name> ?n . ?x <knows> ?y . ?y <interest> ?i . }`,
			`SELECT * WHERE { ?y <interest> ?i . ?x <knows> ?y . ?x <name> ?n . }`,
			`SELECT * WHERE { ?x <name> ?n . ?x <knows> ?y . ?y <interest> ?i . ?y <knows> <Ghost> . }`,
		} {
			res, err := answer(q)
			if err != nil {
				t.Fatalf("%s %s: %v", name, q, err)
			}
			if !slices.Equal(res.Vars, want) {
				t.Errorf("%s %s: header %v, want %v", name, q, res.Vars, want)
			}
			tables = append(tables, res)
		}
		if len(tables[0].Rows) == 0 || !slices.Equal(sortedRows(tables[0]), sortedRows(tables[1])) {
			t.Errorf("%s: the patterns and their reverse answer %d and %d rows, not one table", name, len(tables[0].Rows), len(tables[1].Rows))
		}
	}
}

// TestIDsFollowLogOrder: two writers apply insert and overwrite batches of
// fresh terms to a durable server at once; recovering the directory they
// leave, without a Close, rebuilds the live dictionary ID for ID, because
// the live run interned each batch's terms in the order the log holds it.
func TestIDsFollowLogOrder(t *testing.T) {
	cfg := DurabilityConfig{Dir: t.TempDir(), Sync: "always"}
	d, dep := bootstrapped(t, cfg)
	srv := dep.StartServer(ServerConfig{Workers: 2, Durable: d, SweepInterval: -1})
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fact := func(i int) string { return fmt.Sprintf("<W%dE%d> <name> \"writer %d entity %d\" .\n", w, i, w, i) }
			for i := range 40 {
				ins := fact(i) + fmt.Sprintf("<W%dE%d> <interest> <W%dI%d> .\n", w, i, w, i)
				var err error
				if i%2 == 0 {
					_, err = srv.Update(ctx, ins)
				} else {
					_, err = srv.Overwrite(ctx, fact(i-1), ins, 0)
				}
				if err != nil {
					t.Errorf("writer %d, batch %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	live := dep.db.graph.Dict.Rendered()
	_, rec := recovered(t, cfg)
	got := rec.db.graph.Dict.Rendered()
	for i := range min(len(live), len(got)) {
		if live[i] != got[i] {
			t.Fatalf("ID %d is %s live and %s recovered", i, live[i], got[i])
		}
	}
	if len(got) != len(live) {
		t.Fatalf("%d terms live, %d recovered", len(live), len(got))
	}
}

// TestRefusedBatchInternsNothing: an update that never applies adds no
// term to the dictionary — not one whose caller gives up while another
// holds the writer, and not one refused for a syntax error on its last
// line.
func TestRefusedBatchInternsNothing(t *testing.T) {
	dep := deploySoak(t, 2, 20)
	srv := dep.StartServer(ServerConfig{Workers: 1, SweepInterval: -1})
	defer srv.Close()
	dict := dep.db.graph.Dict
	n := dict.Len()

	held, release := make(chan struct{}), make(chan struct{})
	go srv.inner.Exclusive(func() { close(held); <-release })
	<-held
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error)
	go func() {
		_, err := srv.Update(ctx, "<Fresh1> <name> \"fresh one\" .\n")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the update wait for the writer
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled update: %v, want context.Canceled", err)
	}
	if got := dict.Len(); got != n {
		t.Fatalf("a cancelled update interned %d terms", got-n)
	}

	if _, err := srv.Update(context.Background(), "<Fresh2> <name> \"fresh two\" .\n<Fresh3> <name> oops\n"); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("malformed update: %v, want ErrBadUpdate", err)
	}
	if got := dict.Len(); got != n {
		t.Fatalf("a malformed update interned %d terms", got-n)
	}
}
