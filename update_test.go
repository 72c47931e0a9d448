package rdffrag

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"rdffrag/internal/rdf"
)

// updateDoc adds a new philosopher (hot properties), extends a known
// city (hot), appends a cold-property triple, introduces a brand-new
// predicate, repeats an existing line (a duplicate that must be
// skipped), and — the incremental-maintenance case — completes a
// pattern match for Boethius, whose deploy-time <name> triple was
// pruned from {name, influencedBy} fragments because he had no
// <influencedBy> edge at fragmentation time. Routing must pull that
// pruned partner triple back into the fragment, or live results diverge
// from the model's.
const updateDoc = `
<Simone_de_Beauvoir> <name> "Simone de Beauvoir" .
<Simone_de_Beauvoir> <mainInterest> <Ethics> .
<Simone_de_Beauvoir> <influencedBy> <Aristotle> .
<Simone_de_Beauvoir> <placeOfDeath> <Paris> .
<Paris> <country> <France> .
<Paris> <imageSkyline> <Paris.JPG> .
<Paris> <twinCity> <Rome> .
<Aristotle> <name> "Aristotle" .
<Boethius> <influencedBy> <Aristotle> .
`

var updateProbes = []string{
	`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> <Ethics> . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Aristotle> . }`,
	`SELECT ?c WHERE { ?x <placeOfDeath> ?p . ?p <country> ?c . }`,
	`SELECT ?x WHERE { ?x <imageSkyline> ?i . }`,
	`SELECT ?x WHERE { ?x <twinCity> ?c . }`,
	`SELECT ?p ?o WHERE { <Paris> ?p ?o . }`,
}

func sortedRows(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, strings.Join(r, "\t"))
	}
	sort.Strings(out)
	return out
}

// TestServerUpdateEndToEnd: an update streamed through the public
// Server.Update counts what it added, a repeat adds nothing, the server's
// metrics count both, and Server.Save keeps the delta and writes what a
// reloaded deployment answers as the live one does. What each probe
// answers after the batch is the lockstep runs' to check (oracleRuns).
func TestServerUpdateEndToEnd(t *testing.T) {
	for _, strategy := range []Strategy{Vertical, Horizontal} {
		t.Run(string(strategy), func(t *testing.T) {
			dep := deployPhilosophers(t, Config{Strategy: strategy, Sites: 3, MinSupport: 0.2}, phWorkload)
			srv := dep.StartServer(ServerConfig{Workers: 2})
			defer srv.Close()

			res, err := srv.Update(context.Background(), updateDoc)
			if err != nil {
				t.Fatalf("Update: %v", err)
			}
			if res.Added != 8 { // 9 lines, 1 duplicate
				t.Errorf("Added = %d, want 8", res.Added)
			}

			// A second identical update is a no-op.
			res2, err := srv.Update(context.Background(), updateDoc)
			if err != nil {
				t.Fatalf("repeat Update: %v", err)
			}
			if res2.Added != 0 {
				t.Errorf("repeat Added = %d, want 0", res2.Added)
			}

			// Server metrics expose the update counters.
			m := srv.Metrics()
			if m.Updates != 2 || m.TriplesAdded != 8 {
				t.Errorf("metrics updates=%d triples_added=%d, want 2/8", m.Updates, m.TriplesAdded)
			}

			// Server.Save pins under the writer lock and writes from the
			// pinned snapshots, changing nothing — the delta stays — and
			// the reloaded deployment answers identically: the updated
			// triples survive persistence.
			delta := dep.updateStats(0, 0).DeltaLen
			var buf bytes.Buffer
			if err := srv.Save(&buf); err != nil {
				t.Fatalf("Server.Save: %v", err)
			}
			if delta == 0 || dep.updateStats(0, 0).DeltaLen != delta {
				t.Errorf("Save moved the delta from %d to %d triples", delta, dep.updateStats(0, 0).DeltaLen)
			}
			reloaded, err := LoadDeployment(&buf)
			if err != nil {
				t.Fatalf("LoadDeployment: %v", err)
			}
			for _, q := range updateProbes {
				got, err := reloaded.Query(q)
				if err != nil {
					t.Fatalf("reloaded %s: %v", q, err)
				}
				if want := queryRows(t, srv, q); !slices.Equal(sortedRows(got), want) {
					t.Errorf("reloaded deployment diverges on %s:\nreloaded %v\nlive     %v", q, sortedRows(got), want)
				}
			}
		})
	}
}

// deleteDoc removes a mix the unrouting must get right: a hot pattern
// triple added live (Simone's mainInterest — the Ethics probe row must
// disappear), a cold triple added live (the Paris skyline), and a
// deploy-time base triple that feeds a join (Aristotle's placeOfDeath —
// the country probe loses Greece). The last two lines must be no-ops: a
// triple of never-seen terms, and an absent triple of known terms.
const deleteDoc = `
<Simone_de_Beauvoir> <mainInterest> <Ethics> .
<Paris> <imageSkyline> <Paris.JPG> .
<Aristotle> <placeOfDeath> <Chalcis> .
<Never_Seen> <unknownProp> <Nowhere> .
<Aristotle> <influencedBy> <Paris> .
`

// TestServerDeleteEndToEnd: a delete batch through the public
// Server.Delete counts what it removed — never-seen terms and absent
// triples are no-ops — a repeat removes nothing, and the server's metrics
// count it. What each probe answers is the lockstep runs' to check
// (oracleRuns).
func TestServerDeleteEndToEnd(t *testing.T) {
	for _, strategy := range []Strategy{Vertical, Horizontal} {
		t.Run(string(strategy), func(t *testing.T) {
			dep := deployPhilosophers(t, Config{Strategy: strategy, Sites: 3, MinSupport: 0.2}, phWorkload)
			srv := dep.StartServer(ServerConfig{Workers: 2})
			defer srv.Close()

			if _, err := srv.Update(context.Background(), updateDoc); err != nil {
				t.Fatalf("Update: %v", err)
			}
			res, err := srv.Delete(context.Background(), deleteDoc)
			if err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if res.Deleted != 3 { // 5 lines, 2 no-ops
				t.Errorf("Deleted = %d, want 3", res.Deleted)
			}

			// A repeat of the same delete batch removes nothing further.
			res2, err := srv.Delete(context.Background(), deleteDoc)
			if err != nil {
				t.Fatalf("repeat Delete: %v", err)
			}
			if res2.Deleted != 0 {
				t.Errorf("repeat Deleted = %d, want 0", res2.Deleted)
			}

			m := srv.Metrics()
			if m.TriplesDeleted != 3 {
				t.Errorf("metrics triples_deleted = %d, want 3", m.TriplesDeleted)
			}
		})
	}
}

// TestServerDeleteAllUnknownTermsIsNoOp: a delete batch whose every
// triple references never-interned terms succeeds as a whole-batch no-op
// without polluting the dictionary or (on a durable server) the WAL.
func TestServerDeleteAllUnknownTermsIsNoOp(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 2, MinSupport: 0.2}, phWorkload)
	srv := dep.StartServer(ServerConfig{})
	defer srv.Close()
	dictLen := dep.db.graph.Dict.Len()
	res, err := srv.Delete(context.Background(), "<Ghost> <haunts> <Nothing> .\n")
	if err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if res.Deleted != 0 {
		t.Errorf("Deleted = %d, want 0", res.Deleted)
	}
	if got := dep.db.graph.Dict.Len(); got != dictLen {
		t.Errorf("no-op delete interned %d terms", got-dictLen)
	}
	if m := srv.Metrics(); m.Updates != 0 {
		t.Errorf("whole-batch no-op counted as an update batch: %+v", m.Updates)
	}
}

// TestServerUpdateRejectsGarbage: a malformed document mutates nothing.
func TestServerUpdateRejectsGarbage(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 2, MinSupport: 0.2}, phWorkload)
	srv := dep.StartServer(ServerConfig{})
	defer srv.Close()
	n := dep.Stats().Triples
	if _, err := srv.Update(context.Background(), "<a> <b> nonsense\n"); err == nil {
		t.Fatal("malformed update accepted")
	}
	if _, err := srv.Update(context.Background(), "# only a comment\n"); err == nil {
		t.Fatal("empty update accepted")
	}
	if dep.Stats().Triples != n {
		t.Fatalf("failed update mutated the graph: %d -> %d", n, dep.Stats().Triples)
	}
}

// oracleBatch is one step of a lockstep run (runLockstep): a batch — the
// N-Triples lines it deletes and inserts, and the TTL, whole hours, it
// stamps on the inserted ones — or, when sweep is set, a TTL sweep at the
// run's start plus sweep; and an optional look at the live deployment
// once it has landed.
type oracleBatch struct {
	name       string
	del, ins   []string
	ttl, sweep time.Duration
	check      func(t *testing.T, dep *Deployment)
}

// oracleRun is a design workload, the probe queries and the batches a
// lockstep run applies to the philosopher fixture.
type oracleRun struct {
	name     string
	workload []string
	probes   []string
	batches  []oracleBatch
}

// parkedTriple has a frequent property — the design workload asks for it
// — that no triple carried at deployment, so no fragment's pattern covers
// it: it completes no match and is parked in the cold fragment, beside
// the hot graph.
const parkedTriple = `<Aristotle> <spouse> <Pythias> .`

// predVarWorkload is the fixture's design workload and a frequent pattern
// with a predicate-variable edge.
var predVarWorkload = append(slices.Clone(phWorkload),
	`SELECT ?x ?p ?o WHERE { ?x <name> ?n . ?x ?p ?o . }`,
	`SELECT ?x ?p ?o WHERE { ?x <name> ?n . ?x ?p ?o . }`)

// oracleRuns are the update shapes the hot/cold split must answer for:
// hot inserts that complete matches, a cold property's insert and delete,
// a brand-new property, duplicate inserts, deletes of loaded and of live
// triples, an overwrite, a parked hot triple inserted and deleted, and a
// design pattern with a predicate-variable edge.
var oracleRuns = []oracleRun{
	{
		name:     "philosophers",
		workload: phWorkload,
		probes:   updateProbes,
		batches: []oracleBatch{
			{name: "insert", ins: strings.Split(strings.TrimSpace(updateDoc), "\n")},
			{name: "cold insert", ins: []string{`<Chalcis> <postalCode> "34100" .`, `<Plato> <viaf> "4" .`}},
			{name: "cold delete", del: []string{`<Chalcis> <postalCode> "34100" .`, `<Plato> <viaf> "4" .`, `<Plato> <viaf> "5" .`}},
			{name: "duplicate insert", ins: []string{`<Aristotle> <mainInterest> <Ethics> .`, `<Paris> <twinCity> <Rome> .`}},
			{name: "delete", del: strings.Split(strings.TrimSpace(deleteDoc), "\n")},
			{name: "overwrite", del: []string{`<Paris> <country> <France> .`}, ins: []string{`<Paris> <country> <Gaul> .`, `<Chalcis> <imageSkyline> <Chalkida.JPG> .`}},
		},
	},
	{
		name:     "parked",
		workload: append(slices.Clone(phWorkload), `SELECT ?x ?s WHERE { ?x <name> ?n . ?x <spouse> ?s . }`),
		probes: []string{
			`SELECT ?p ?o WHERE { <Aristotle> ?p ?o . }`,
			`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`,
		},
		batches: []oracleBatch{
			{name: "park", ins: []string{parkedTriple}, check: func(t *testing.T, dep *Deployment) {
				d := dep.db.graph.Dict
				tr := rdf.Triple{S: d.Encode(rdf.NewIRI("Aristotle")), P: d.Encode(rdf.NewIRI("spouse")), O: d.Encode(rdf.NewIRI("Pythias"))}
				if !dep.hc.Hot.Has(tr) || !dep.frag.Cold.Graph.Has(tr) {
					t.Fatal("setup: the triple is not parked in the cold fragment beside the hot graph")
				}
			}},
			{name: "park again", ins: []string{parkedTriple}},
			{name: "unpark", del: []string{parkedTriple}},
		},
	},
	{
		name:     "predicate variable",
		workload: predVarWorkload,
		probes: []string{
			`SELECT ?x ?p ?o WHERE { ?x <name> ?n . ?x ?p ?o . }`,
			`SELECT ?p ?o WHERE { <Zeno> ?p ?o . }`,
			`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`,
		},
		batches: []oracleBatch{
			{name: "cold first", ins: []string{`<Zeno> <postalCode> "55" .`}, check: func(t *testing.T, dep *Deployment) {
				for _, f := range dep.frag.Fragments {
					for _, e := range f.Pattern.Graph.Edges {
						if e.IsPredVar() {
							return
						}
					}
				}
				t.Fatal("setup: no fragment's pattern has a predicate-variable edge")
			}},
			{name: "hot after", ins: []string{`<Zeno> <name> "Zeno" .`, `<Zeno> <mainInterest> <Logic> .`}, check: func(t *testing.T, dep *Deployment) {
				// The anchored pattern is matched against the hot graph,
				// as fragments are built: a cold triple of Zeno's joins
				// no pattern fragment through the predicate variable.
				d := dep.db.graph.Dict
				cold := rdf.Triple{S: d.Encode(rdf.NewIRI("Zeno")), P: d.Encode(rdf.NewIRI("postalCode")), O: d.Encode(rdf.NewLiteral("55"))}
				for _, f := range dep.frag.Fragments {
					if f.Graph.Has(cold) {
						t.Errorf("fragment %d (%s) holds a cold triple", f.ID, f.Pattern.Code)
					}
				}
			}},
			{name: "delete", del: []string{`<Zeno> <name> "Zeno" .`, `<Zeno> <postalCode> "55" .`}},
		},
	},
}

// TestUpdatesMatchRedeploy: every batch shape of oracleRuns, under both
// fragmentations, reports and answers what a deployment built afresh over
// the surviving triples would — what the model reports and answers.
func TestUpdatesMatchRedeploy(t *testing.T) {
	for _, run := range oracleRuns {
		for _, strategy := range []Strategy{Vertical, Horizontal} {
			t.Run(run.name+"/"+string(strategy), func(t *testing.T) {
				runLockstep(t, strategy, run, nil)
			})
		}
	}
}

// TestSaveBytesGolden: what Server.Save writes of each oracleRuns
// deployment, fresh and after each batch, byte for byte — SHA-256s of the
// version 5 image, which stores each site's graph once. The version 5
// images written while the header still carried the version 4 reader's
// two fields differ from these only in the header's type descriptor:
// each loads and saves to these bytes.
func TestSaveBytesGolden(t *testing.T) {
	for _, run := range oracleRuns {
		for _, strategy := range []Strategy{Vertical, Horizontal} {
			key := run.name + "/" + string(strategy)
			t.Run(key, func(t *testing.T) {
				var sums []string
				runLockstep(t, strategy, run, func(srv *Server) {
					var buf bytes.Buffer
					if err := srv.Save(&buf); err != nil {
						t.Fatalf("Server.Save: %v", err)
					}
					sums = append(sums, fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())))
				})
				if want := goldenSaves[key]; !slices.Equal(sums, want) {
					t.Errorf("Save wrote other bytes:\ngot  %q\nwant %q", sums, want)
				}
			})
		}
	}
}

// goldenSaves maps run/strategy to the SHA-256 of each Save, fresh and
// after each batch.
var goldenSaves = map[string][]string{
	"philosophers/vertical": {
		"171700daeb42c9a29a74c9509afb4de03a43daf1d1c99344d15db2fedb3f30dc",
		"ba7e2593f75135dca36283e1ed607de920ed502982319c5634d1ff5ef758d3b0",
		"0d8186b4ea2d8a07d0171881da1722855ceb8392aced43fda20e5ed504f2fc4f",
		"d15ba8406a3e83ecdbdac5e173e1b5f9f77a3a1995bb0f82808b0161db2e0d55",
		"d15ba8406a3e83ecdbdac5e173e1b5f9f77a3a1995bb0f82808b0161db2e0d55",
		"2a6492313434eb7d2c366d16205cc2b961cd475164ccb21c818dba3a97c85fe3",
		"5a309bbe7ae0ac1905081994292e0457d9dfdbdb5d3baee325e018c34ea91174",
	},
	"philosophers/horizontal": {
		"790c84132e252b47bb6f67009e3caecbc20378d4a69e5370e05e00f3da6e9661",
		"2c55f4c9a2f93c589f852d053566a34c1d133e4af6f43fef1d8e21f20dbbefff",
		"ba03a0970a0b661c3cef47aa189018bcce37ce62a73059ec326fc2df0e6cff7e",
		"56bb9b6ee7315f929c0912338041b4b99d175ccb2520980d853b9eb9c898b5d8",
		"56bb9b6ee7315f929c0912338041b4b99d175ccb2520980d853b9eb9c898b5d8",
		"1e9c14a2d2a4b9714baf4d11d7fa37cdfed53b68701ea0b222a23510520a1a13",
		"b9215f6d0c75fd69c88279a0c91c851909ff0ca11a8b41e2d53caba712508404",
	},
	"parked/vertical": {
		"4ffe86633a942e210967b255c0f1c235a3e201d0bda75b86a91a50a55df1f9fd",
		"00b8f6f433e78285d598bc4ae3971b7263ca160c1d6f81f3b2f46e5a858c5ae9",
		"00b8f6f433e78285d598bc4ae3971b7263ca160c1d6f81f3b2f46e5a858c5ae9",
		"b40d92f627e39e88bd7f08f4db16ae9fdeb0301fb93b0c8335d45136c6f14b83",
	},
	"parked/horizontal": {
		"c22f22c67bb8efbb0593a7b2dd081ae9e45958e4c0b7473d3a86a3dc59a025b4",
		"4afe257c4f9a26924e0c9581cc0a1b63826a7c49fd0064e5cdbbcb7468b860f6",
		"4afe257c4f9a26924e0c9581cc0a1b63826a7c49fd0064e5cdbbcb7468b860f6",
		"bccd9bb753a9e3c2d2d54745d8f71f6401f9c284b16829f06a1e272afed7837f",
	},
	"predicate variable/vertical": {
		"7dcf782184504dcd14a9683522d289507c159f516942ffb82195007b4432b1e6",
		"5c5baa1e41e90c34a9909468023bf302990369255d888c22f24576e85c91a10e",
		"839f5309ec7f44c29b8fc522b7d5e9117121597a50699545981cb7bd7fee757a",
		"c819ab36d989641c50dfe89163db64fd77c9c80207b9fa34a4c7059ee5dda930",
	},
	"predicate variable/horizontal": {
		"fffca894381efb81a134f2ac5787d7c7e942a068e634353ebb556812ed06c2cc",
		"4b4e47a66ea6994ce212939d9d841cd080e45fa1ba64b7d9c0456a4e83f5f804",
		"6752b4bdd609723da3a109c20118c68e7bbb57472e9a8f0df51ec5c693adf975",
		"31e57d6d3aee90cd22067062c6d97194b4f582340932544d7cfc2ce9c9900223",
	},
}
