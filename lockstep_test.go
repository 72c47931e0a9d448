package rdffrag

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"rdffrag/internal/model"
)

// modelOf returns a model holding the triples of the N-Triples docs.
func modelOf(t *testing.T, docs ...string) *model.Store {
	t.Helper()
	m := model.New()
	ts, err := m.Parse(strings.Join(docs, "\n"))
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	m.Apply(model.Batch{Ins: ts})
	return m
}

// modelRows is what m answers for q, as sortedRows renders a Result.
func modelRows(t *testing.T, m *model.Store, q string) []string {
	t.Helper()
	a, err := m.Answer(q)
	if err != nil {
		t.Fatalf("model: %s: %v", q, err)
	}
	return m.Text(a)
}

// runLockstep deploys the philosopher fixture over run's workload, serves
// it, and applies run's batches to the server and to the model in
// lockstep. After each, the batch's Added and Deleted — a sweep's count —
// Stats' triple count, how many triples have a TTL deadline, and the
// header and rows of every probe must be the model's. each, if not nil,
// sees the server fresh and after every batch.
func runLockstep(t *testing.T, strategy Strategy, run oracleRun, each func(*Server)) {
	t.Helper()
	dep := deployPhilosophers(t, Config{Strategy: strategy, Sites: 3, MinSupport: 0.2}, run.workload)
	srv := dep.StartServer(ServerConfig{Workers: 2, SweepInterval: -1})
	defer srv.Close()
	m := modelOf(t, phNT)
	// The model's clock stands at the run's start. A TTL is whole hours
	// and a sweep lands half an hour off them, so the seconds the server
	// takes to reach a batch never decide what a sweep removes.
	start := time.Now()
	if each != nil {
		each(srv)
	}
	ctx := context.Background()
	for i, b := range run.batches {
		step := fmt.Sprintf("%s, batch %d (%s: del %q, ins %q, ttl %v, sweep %v)", run.name, i, b.name, b.del, b.ins, b.ttl, b.sweep)
		if b.sweep > 0 {
			if got, want := srv.inner.Sweep(start.Add(b.sweep)), m.Sweep(start.Add(b.sweep)); got != want {
				t.Fatalf("%s: swept %d, the model %d", step, got, want)
			}
		} else {
			del, ins := strings.Join(b.del, "\n"), strings.Join(b.ins, "\n")
			res, err := srv.Overwrite(ctx, del, ins, b.ttl)
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			mb := model.Batch{}
			mb.Del, _ = m.Parse(del) // the server parsed both sides
			mb.Ins, _ = m.Parse(ins)
			if b.ttl > 0 {
				mb.Deadline = start.Add(b.ttl)
			}
			if added, deleted := m.Apply(mb); res.Added != added || res.Deleted != deleted {
				t.Fatalf("%s: added %d, deleted %d; the model %d, %d", step, res.Added, res.Deleted, added, deleted)
			}
		}
		if b.check != nil {
			b.check(t, dep)
		}
		var pending int
		srv.inner.Exclusive(func() { pending = len(dep.expiry) })
		if got := dep.Stats().Triples; got != m.Len() || pending != m.Pending() {
			t.Fatalf("%s: %d triples, %d with a deadline; the model %d, %d", step, got, pending, m.Len(), m.Pending())
		}
		terms := dep.db.graph.Dict.Len()
		for _, q := range run.probes {
			got, err := srv.Query(ctx, q)
			if err != nil {
				t.Fatalf("%s: %s: %v", step, q, err)
			}
			want, _ := m.Answer(q) // the server parsed it
			if g, w := sortedRows(got), m.Text(want); !slices.Equal(got.Vars, want.Vars) || !slices.Equal(g, w) {
				t.Fatalf("%s: %s:\nserved %v %q\nmodel  %v %q", step, q, got.Vars, g, want.Vars, w)
			}
		}
		if n := dep.db.graph.Dict.Len(); n != terms {
			t.Fatalf("%s: the probes took the dictionary from %d to %d terms", step, terms, n)
		}
		if each != nil {
			each(srv)
		}
	}
}

// lockstepProbes ask for the workloads' patterns, anchored and not,
// through a predicate variable, a cold property, and with a projected
// variable the pattern does not bind; for two of the workload's stars
// joined on ?i, two subqueries whose fragments share a site under either
// fragmentation, so the engine merges them into one matched there; and
// for terms the data never holds — a literal, a predicate — and one
// genRun inserts partway through a run, which a probe resolves when it is
// parsed: absent before the insert, present after. No probe adds a term
// to the dictionary. None has ORDER BY or LIMIT, which the model leaves
// out.
var lockstepProbes = []string{
	`SELECT ?x ?y WHERE { ?x <name> ?n . ?x <mainInterest> ?i . ?y <name> ?m . ?y <mainInterest> ?i . }`,
	`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`,
	`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> <Ethics> . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Aristotle> . }`,
	`SELECT ?x ?y WHERE { ?x <name> ?n . ?x <influencedBy> ?y . }`,
	`SELECT ?x ?c WHERE { ?x <placeOfDeath> ?p . ?p <country> ?c . }`,
	`SELECT ?x ?p ?o WHERE { ?x <name> ?n . ?x ?p ?o . }`,
	`SELECT ?p ?o WHERE { <Aristotle> ?p ?o . }`,
	`SELECT ?s ?o WHERE { ?s <postalCode> ?o . }`,
	`SELECT ?x ?unbound WHERE { ?x <spouse> ?s . }`,
	`SELECT ?x WHERE { ?x <name> "Nobody" . }`,
	`SELECT ?x ?o WHERE { ?x <birthPlace> ?o . }`,
	`SELECT ?p ?o WHERE { <Hypatia> ?p ?o . }`,
}

// genRun generates a seeded run of n steps over the fixture's terms and a
// few it lacks: inserts with and without a TTL — of an entity's name, then
// its other facts, among them — duplicate inserts, deletes of present and
// absent triples and of never-seen terms, overwrites whose delete side may
// be empty, the delete-and-reinsert of one triple, and sweeps. Every third
// seed deploys over a workload with a predicate-variable pattern.
func genRun(seed int64, n int) oracleRun {
	r := rand.New(rand.NewSource(seed))
	term := func(ts ...string) string { return ts[r.Intn(len(ts))] }
	props := []string{"name", "influencedBy", "mainInterest", "placeOfDeath", "country", "postalCode", "spouse"}
	fact := func(s string, props ...string) string {
		return fmt.Sprintf("<%s> <%s> %s .", s, term(props...), term(`"Zeno"`, `"341 00"`, "<Aristotle>", "<Plato>", "<Chalcis>", "<Ethics>", "<Greece>"))
	}
	subject := func() string {
		return term("Aristotle", "Plato", "Boethius", "Max_Horkheimer", "Chalcis", "Zeno", "Hypatia")
	}
	seen := strings.Split(strings.TrimSpace(phNT), "\n") // every line the run has named
	some := func(k int, line func() string) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = line()
		}
		return out
	}
	fresh := func() string { return fact(subject(), props...) }
	known := func() string { return term(seen...) }
	ghost := func() string { return fmt.Sprintf("<Ghost%d> <haunts> <Nowhere> .", r.Intn(3)) }
	ttl := func() time.Duration { return time.Duration(r.Intn(4)) * time.Hour } // 0: permanent

	run := oracleRun{name: fmt.Sprintf("seed %d", seed), workload: phWorkload, probes: lockstepProbes}
	if seed%3 == 0 {
		run.workload = predVarWorkload
	}
	for range n {
		var b oracleBatch
		switch r.Intn(9) {
		case 0:
			b = oracleBatch{name: "insert", ins: some(1+r.Intn(3), fresh), ttl: ttl()}
		case 1:
			s := subject()
			b = oracleBatch{name: "insert of an entity", ins: []string{fact(s, "name"), fact(s, props[:3]...), fact(s, props...)}, ttl: ttl()}
		case 2:
			b = oracleBatch{name: "duplicate insert", ins: some(1+r.Intn(2), known), ttl: ttl()}
		case 3:
			b = oracleBatch{name: "delete", del: slices.Concat(some(1+r.Intn(2), known), some(r.Intn(2), fresh))}
		case 4:
			b = oracleBatch{name: "delete of never-seen terms", del: slices.Concat(some(1, ghost), some(r.Intn(2), known))}
		case 5, 6:
			b = oracleBatch{name: "overwrite", del: some(r.Intn(3), known), ins: some(1+r.Intn(2), fresh), ttl: ttl()}
		case 7:
			line := known()
			b = oracleBatch{name: "delete and reinsert", del: []string{line}, ins: []string{line}, ttl: ttl()}
		default:
			b = oracleBatch{name: "sweep", sweep: time.Duration(r.Intn(4))*time.Hour + 30*time.Minute}
		}
		seen = append(seen, b.ins...)
		run.batches = append(run.batches, b)
	}
	return run
}

// TestModelLockstep drives the generated runs through an embedded server,
// under both fragmentations, and the model in lockstep.
func TestModelLockstep(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		run := genRun(seed, 40)
		for _, strategy := range []Strategy{Vertical, Horizontal} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, strategy), func(t *testing.T) {
				runLockstep(t, strategy, run, nil)
			})
		}
	}
}
