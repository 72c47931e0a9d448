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
			reloaded, err := LoadDeployment(&buf, Config{})
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
						t.Errorf("fragment %d (%s) holds a cold triple", f.ID, f.Key())
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
// version 5 image, which stores each site's graph once. Each image the
// build before it wrote of these runs, as version 4, loads into the same
// graphs and manifest; the fragment sizes differ once updates have
// landed, a version 4 image having counted each fragment's graph.
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
		"694b07ec91a22381eaf5a666ecb4315d9ba4087b60d4e44963619dcee8f41206",
		"39abb666328a39152fc4bb27a8ff7a25941258abae39cce614a340437f8bf252",
		"009630808f2006c7af235ef64289978a2c3421de571e395b2b3817c3583de89d",
		"4b58796b9006e5dd0b53f39580d2325461e39ee01b54f64279879c410975a362",
		"4b58796b9006e5dd0b53f39580d2325461e39ee01b54f64279879c410975a362",
		"4ab826110c4ebb374ea18345773a0e8f8d5765eeb81cd3769bd0179876818d9e",
		"b900bdd831265240a6774230f5ac9d66601a22a711b89cdfd203915f06c8db2b",
	},
	"philosophers/horizontal": {
		"5b182c1590e81144d265eb548958cabc244fd07a3a3506f20743a21e78eaa058",
		"23a0a169d85e7357942636431d848a7ff287a9714bcdf961590e3957477954d1",
		"8e6793cdfebae2c708b84d7157ce9250ccb7e60e10cfc96df9bb3c06982f1759",
		"27f02d220f601ad234f1d714f9b34f509b4f4901cf41170c6427698eba539300",
		"27f02d220f601ad234f1d714f9b34f509b4f4901cf41170c6427698eba539300",
		"1226e9d4057bde80c2b45ae578d851fd71beb141d18f920e361669a246f13654",
		"5b8eabbff3715416cfc4950791600c4a0894c2249c8c44bbd0fd2c28da23902c",
	},
	"parked/vertical": {
		"ea8d526d9c436813239954a28feb269fe71444cb04fe33aea7aa6404309af5b7",
		"c025053a5ab321713c3f232b48241c6ecb2138920885fc2c580432ef10a8ce54",
		"c025053a5ab321713c3f232b48241c6ecb2138920885fc2c580432ef10a8ce54",
		"0a2b90ccefec7665e54bf6210d5c7f79322fbdf4feaaf55bed5205415c57f0da",
	},
	"parked/horizontal": {
		"b0b80492f085dcfde050256e87b4411699e2222aab15af4bcbfafcc178ed1801",
		"6688068582626730f53607294d3b22b7d2fdecde80d4f972b8ecd0821e0b93bc",
		"6688068582626730f53607294d3b22b7d2fdecde80d4f972b8ecd0821e0b93bc",
		"03afcf6ba4f8880a485fd42d69400f9551480bd3791fdd144443b4421e7d62ca",
	},
	"predicate variable/vertical": {
		"e74346d1dd220599e9c67f2c53d764e6da3fb4ded744741f2321543d9e73ef91",
		"f2a6307a924ed3a51008d3a49d8e9130473b5c728d63804b1ced3ade2c454aea",
		"b986a051d1aa464231dfe1881bb95cba9fec518e5598638ce6c608b6a5798935",
		"fc4054586f9cc74f0038e2c9445970ef04ebdaa5098d21bf8e4f2c778f25dce9",
	},
	"predicate variable/horizontal": {
		"e48ec4e8ffbf3350edf44ad786a311f5af10329ce5d29e70adf9283cb656fe0d",
		"9fa484f3b406a39e9312f804b7f7d0270aadaaf057df4c1c68bafddf3d1b19c4",
		"dfde8271ddca9c10897d79e31c34162c724587c9cd51117b5346265c44e34832",
		"0f7f03ccf3fbefaebbb670382c7c0d5a217b8f91ce95a73ca9f61d022731d5f1",
	},
}
