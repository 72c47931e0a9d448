package rdffrag

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

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
// from the redeploy oracle.
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

// TestServerUpdateEndToEnd is the deployment half of the differential
// harness: after streaming updates through the public Server.Update, every
// probe query must answer exactly what a from-scratch deployment over the
// merged data answers — pattern-routed, cold and global subqueries alike —
// without the live deployment re-running fragmentation.
func TestServerUpdateEndToEnd(t *testing.T) {
	for _, strategy := range []Strategy{Vertical, Horizontal} {
		t.Run(string(strategy), func(t *testing.T) {
			db := loadPhilosophers(t, Config{Strategy: strategy, Sites: 3, MinSupport: 0.2})
			dep, err := db.Deploy(phWorkload)
			if err != nil {
				t.Fatalf("Deploy: %v", err)
			}
			srv := dep.StartServer(ServerConfig{Workers: 2})
			defer srv.Close()

			before, err := srv.Query(context.Background(), updateProbes[0])
			if err != nil {
				t.Fatalf("baseline query: %v", err)
			}

			res, err := srv.Update(context.Background(), updateDoc)
			if err != nil {
				t.Fatalf("Update: %v", err)
			}
			if res.Added != 8 { // 9 lines, 1 duplicate
				t.Errorf("Added = %d, want 8", res.Added)
			}

			after, err := srv.Query(context.Background(), updateProbes[0])
			if err != nil {
				t.Fatalf("post-update query: %v", err)
			}
			if len(after.Rows) != len(before.Rows)+1 {
				t.Errorf("Ethics rows %d -> %d, want +1 (Simone de Beauvoir missing)",
					len(before.Rows), len(after.Rows))
			}

			// Differential oracle: a fresh deployment over the merged data.
			db2 := loadPhilosophers(t, Config{Strategy: strategy, Sites: 3, MinSupport: 0.2})
			if _, err := db2.LoadNTriples(strings.NewReader(updateDoc)); err != nil {
				t.Fatalf("oracle load: %v", err)
			}
			dep2, err := db2.Deploy(phWorkload)
			if err != nil {
				t.Fatalf("oracle Deploy: %v", err)
			}
			for _, q := range updateProbes {
				got, err := srv.Query(context.Background(), q)
				if err != nil {
					t.Fatalf("live %s: %v", q, err)
				}
				want, err := dep2.Query(q)
				if err != nil {
					t.Fatalf("oracle %s: %v", q, err)
				}
				g, w := sortedRows(got), sortedRows(want)
				if strings.Join(g, "\n") != strings.Join(w, "\n") {
					t.Errorf("%s:\nlive   %v\noracle %v", q, g, w)
				}
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
				want, err := dep2.Query(q)
				if err != nil {
					t.Fatalf("oracle %s: %v", q, err)
				}
				if strings.Join(sortedRows(got), "\n") != strings.Join(sortedRows(want), "\n") {
					t.Errorf("reloaded deployment diverges on %s", q)
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

// TestServerDeleteEndToEnd: after an insert batch and then a delete
// batch through the public API, every probe query must answer exactly
// what a from-scratch deployment over the surviving triples answers —
// deletes reach the global graph, the hot/cold split and the fragment
// overlays without the live deployment re-running fragmentation.
func TestServerDeleteEndToEnd(t *testing.T) {
	for _, strategy := range []Strategy{Vertical, Horizontal} {
		t.Run(string(strategy), func(t *testing.T) {
			db := loadPhilosophers(t, Config{Strategy: strategy, Sites: 3, MinSupport: 0.2})
			dep, err := db.Deploy(phWorkload)
			if err != nil {
				t.Fatalf("Deploy: %v", err)
			}
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

			// Differential oracle: a fresh deployment over exactly the
			// surviving lines.
			gone := map[string]bool{}
			for _, line := range strings.Split(deleteDoc, "\n") {
				if line = strings.TrimSpace(line); line != "" {
					gone[line] = true
				}
			}
			var survivors strings.Builder
			for _, line := range strings.Split(phNT+updateDoc, "\n") {
				if l := strings.TrimSpace(line); l != "" && !gone[l] {
					survivors.WriteString(l + "\n")
				}
			}
			db2 := Open(Config{Strategy: strategy, Sites: 3, MinSupport: 0.2})
			if _, err := db2.LoadNTriples(strings.NewReader(survivors.String())); err != nil {
				t.Fatalf("oracle load: %v", err)
			}
			dep2, err := db2.Deploy(phWorkload)
			if err != nil {
				t.Fatalf("oracle Deploy: %v", err)
			}
			for _, q := range updateProbes {
				got, err := srv.Query(context.Background(), q)
				if err != nil {
					t.Fatalf("live %s: %v", q, err)
				}
				want, err := dep2.Query(q)
				if err != nil {
					t.Fatalf("oracle %s: %v", q, err)
				}
				g, w := sortedRows(got), sortedRows(want)
				if strings.Join(g, "\n") != strings.Join(w, "\n") {
					t.Errorf("%s:\nlive   %v\noracle %v", q, g, w)
				}
			}

			// A repeat of the same delete batch removes nothing further.
			res2, err := srv.Delete(context.Background(), deleteDoc)
			if err != nil {
				t.Fatalf("repeat Delete: %v", err)
			}
			if res2.Deleted != 0 {
				t.Errorf("repeat Deleted = %d, want 0", res2.Deleted)
			}

			// Delete-then-reinsert: re-adding a deleted line brings its
			// probe row back (the later insert outlives the tombstone).
			reinsert := "<Simone_de_Beauvoir> <mainInterest> <Ethics> .\n"
			res3, err := srv.Update(context.Background(), reinsert)
			if err != nil || res3.Added != 1 {
				t.Fatalf("reinsert: res %+v, err %v", res3, err)
			}
			after, err := srv.Query(context.Background(), updateProbes[0])
			if err != nil {
				t.Fatalf("post-reinsert query: %v", err)
			}
			want, err := dep2.Query(updateProbes[0])
			if err != nil {
				t.Fatal(err)
			}
			if len(after.Rows) != len(want.Rows)+1 {
				t.Errorf("post-reinsert Ethics rows = %d, want %d", len(after.Rows), len(want.Rows)+1)
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
	db := loadPhilosophers(t, Config{Sites: 2, MinSupport: 0.2})
	dep, err := db.Deploy(phWorkload)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	srv := dep.StartServer(ServerConfig{})
	defer srv.Close()
	dictLen := db.Graph().Dict.Len()
	res, err := srv.Delete(context.Background(), "<Ghost> <haunts> <Nothing> .\n")
	if err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if res.Deleted != 0 {
		t.Errorf("Deleted = %d, want 0", res.Deleted)
	}
	if got := db.Graph().Dict.Len(); got != dictLen {
		t.Errorf("no-op delete interned %d terms", got-dictLen)
	}
	if m := srv.Metrics(); m.Updates != 0 {
		t.Errorf("whole-batch no-op counted as an update batch: %+v", m.Updates)
	}
}

// TestServerUpdateRejectsGarbage: a malformed document mutates nothing.
func TestServerUpdateRejectsGarbage(t *testing.T) {
	db := loadPhilosophers(t, Config{Sites: 2, MinSupport: 0.2})
	dep, err := db.Deploy(phWorkload)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
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

// oracleBatch is one batch of a redeploy-oracle run: the N-Triples lines
// it deletes and inserts, written as the model holds them, and an
// optional look at the live deployment once it has landed.
type oracleBatch struct {
	name     string
	del, ins []string
	check    func(t *testing.T, dep *Deployment)
}

// oracleRun is a fixture, a design workload, the probe queries and the
// batches a redeploy-oracle run applies.
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
				tr := rdf.Triple{S: d.MustIRI("Aristotle"), P: d.MustIRI("spouse"), O: d.MustIRI("Pythias")}
				if !dep.hc.Hot.Has(tr) || !dep.frag.Cold.Graph.Has(tr) {
					t.Fatal("setup: the triple is not parked in the cold fragment beside the hot graph")
				}
			}},
			{name: "park again", ins: []string{parkedTriple}},
			{name: "unpark", del: []string{parkedTriple}},
		},
	},
	{
		name: "predicate variable",
		workload: append(slices.Clone(phWorkload),
			`SELECT ?x ?p ?o WHERE { ?x <name> ?n . ?x ?p ?o . }`,
			`SELECT ?x ?p ?o WHERE { ?x <name> ?n . ?x ?p ?o . }`),
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
				cold := rdf.Triple{S: d.MustIRI("Zeno"), P: d.MustIRI("postalCode"), O: d.MustLiteral("55")}
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

// runAgainstRedeploy deploys the philosopher fixture over run's workload,
// serves it, and applies run's batches one by one. After each, the
// batch's Added and Deleted must be what a set of lines says they are —
// a duplicate adds nothing, an absent triple deletes nothing — and every
// probe, and Stats' triple count, must equal a fresh deployment's over
// the lines left. It returns the SHA-256 of Server.Save's bytes, fresh
// and after each batch.
func runAgainstRedeploy(t *testing.T, strategy Strategy, run oracleRun) []string {
	t.Helper()
	cfg := Config{Strategy: strategy, Sites: 3, MinSupport: 0.2}
	dep, err := loadPhilosophers(t, cfg).Deploy(run.workload)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	srv := dep.StartServer(ServerConfig{Workers: 2})
	defer srv.Close()
	saved := func() string {
		var buf bytes.Buffer
		if err := srv.Save(&buf); err != nil {
			t.Fatalf("Server.Save: %v", err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	sums := []string{saved()}

	model := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(phNT), "\n") {
		model[line] = true
	}
	for _, b := range run.batches {
		wantDel, wantAdd := 0, 0
		for _, l := range b.del {
			if model[l] {
				wantDel++
				delete(model, l)
			}
		}
		for _, l := range b.ins {
			if !model[l] {
				wantAdd++
				model[l] = true
			}
		}
		res, err := srv.Overwrite(context.Background(), strings.Join(b.del, "\n"), strings.Join(b.ins, "\n"), 0)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if res.Added != wantAdd || res.Deleted != wantDel {
			t.Errorf("%s: added %d, deleted %d; want %d, %d", b.name, res.Added, res.Deleted, wantAdd, wantDel)
		}
		if b.check != nil {
			b.check(t, dep)
		}

		lines := slices.Sorted(maps.Keys(model))
		oracle := Open(cfg)
		if _, err := oracle.LoadNTriples(strings.NewReader(strings.Join(lines, "\n"))); err != nil {
			t.Fatalf("%s: oracle load: %v", b.name, err)
		}
		want, err := oracle.Deploy(run.workload)
		if err != nil {
			t.Fatalf("%s: oracle Deploy: %v", b.name, err)
		}
		if got := dep.Stats().Triples; got != len(lines) {
			t.Errorf("%s: Stats counts %d triples, the model %d", b.name, got, len(lines))
		}
		for _, q := range run.probes {
			g, err := srv.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: live %s: %v", b.name, q, err)
			}
			w, err := want.Query(q)
			if err != nil {
				t.Fatalf("%s: oracle %s: %v", b.name, q, err)
			}
			if gs, ws := sortedRows(g), sortedRows(w); !slices.Equal(gs, ws) {
				t.Errorf("%s: %s:\nlive   %v\noracle %v", b.name, q, gs, ws)
			}
		}
		sums = append(sums, saved())
	}
	return sums
}

// TestUpdatesMatchRedeploy: every batch shape of oracleRuns, under both
// fragmentations, reports and answers what a redeploy over the
// surviving lines reports and answers.
func TestUpdatesMatchRedeploy(t *testing.T) {
	for _, run := range oracleRuns {
		for _, strategy := range []Strategy{Vertical, Horizontal} {
			t.Run(run.name+"/"+string(strategy), func(t *testing.T) {
				runAgainstRedeploy(t, strategy, run)
			})
		}
	}
}

// TestSaveBytesGolden: what Server.Save writes of each oracleRuns
// deployment, fresh and after each batch, byte for byte — SHA-256s
// recorded when the deployment still kept the loaded graph whole beside
// its hot/cold split, whose global section is that graph. The image holds
// the same global graph as the union of the split, so a checkpoint stays
// readable by, and identical to, what that build wrote.
func TestSaveBytesGolden(t *testing.T) {
	for _, run := range oracleRuns {
		for _, strategy := range []Strategy{Vertical, Horizontal} {
			key := run.name + "/" + string(strategy)
			t.Run(key, func(t *testing.T) {
				if got, want := runAgainstRedeploy(t, strategy, run), goldenSaves[key]; !slices.Equal(got, want) {
					t.Errorf("Save wrote other bytes:\ngot  %q\nwant %q", got, want)
				}
			})
		}
	}
}

// goldenSaves maps run/strategy to the SHA-256 of each Save, fresh and
// after each batch. Every one is what the build that kept the loaded graph
// wrote, but the predicate-variable run's after its hot batch: that build
// matched the anchored pattern against the loaded graph, so the pattern's
// predicate-variable edge pulled Zeno's cold <postalCode> triple into the
// fragment, which a redeploy does not; matching against the hot graph
// leaves it out.
var goldenSaves = map[string][]string{
	"philosophers/vertical": {
		"c9af695f84ecf220e3dbf2f421a323f5a2dae30b12409e5a042d6b2cc18bc361",
		"25b5e2c0199f42327e6c6d4e3e386f2d47ffae928b512d9dbdd19f7f23d4bcde",
		"108b0c2269d72d02d30fc63659c65a5df9b9ffc8bc1cd438f7df048604049398",
		"2bcae2738e4e9ec165700de445016c56932c66b0a9e0c34450b8d17be7e6dbcb",
		"2bcae2738e4e9ec165700de445016c56932c66b0a9e0c34450b8d17be7e6dbcb",
		"553428818a94f02ed7f42cb1f771a2796b383a5b33b39a86314b3854594796a6",
		"8564065e786f1076c09b4ab61033f3416e4a5d153f37efb62c4a7211ccf372f5",
	},
	"philosophers/horizontal": {
		"b48cc4af220a8ce86c7988ec0c86477285dd5e18a9e9a74c834ec7ce6fe1e62b",
		"b337086fbd5013e024fc48c48b758d0428838da176357ef2d6f349f02817a5b3",
		"94f98deef5c2bbb71d3c5f7b06d3eb419fdcad58bf10b5563da691e397993bcf",
		"c89f96acc7fdd5ae429507f99d6832e42e41afe5684c41c44b8e52352395264b",
		"c89f96acc7fdd5ae429507f99d6832e42e41afe5684c41c44b8e52352395264b",
		"7271174b73e0abcb9adbebfae7586dfdf3eac48bf815a12cb8f5640ce40b1c98",
		"56c3d2302ce7848aecca0ed153e0cfde869396f0fe457c06f2f4eb85b61834ea",
	},
	"parked/vertical": {
		"e6aa11d0566d07782c61d702c8c7fa7837bb0a7a072ffa954c0d6c0aa95c9176",
		"f4e7f4d84a3ff06a800cadc2a202319ae68b0a06294fd2316fbe5b3c003c6746",
		"f4e7f4d84a3ff06a800cadc2a202319ae68b0a06294fd2316fbe5b3c003c6746",
		"0aa8ffb3f2e6cdb1948c92d9bc83170b1dc8cc81d759e33cf642815cf1beb54b",
	},
	"parked/horizontal": {
		"b32926598e5376b6d8aa05bd38069203cc24ea32cb407a10944f7ddc509f576e",
		"22fed3f0bcc9f473f2923fc4b9b9869dccdba655e1541d6bc53a7d6644485a08",
		"22fed3f0bcc9f473f2923fc4b9b9869dccdba655e1541d6bc53a7d6644485a08",
		"eee856cce10b8f667e4b964bfbf1af9262e8b4dac4c91d280b7897aa0765c022",
	},
	"predicate variable/vertical": {
		"96503d849be52672943f4d762034bab9684322d468d1417f59d5eb3fc6f58227",
		"18b87b5688569ea7c6d7efa3af5a7f780b6666aa8e0d552add7652d29d48eb42",
		"b3de5df8cd7509f52e37755f32d088cdc0f25332eef93fc523b55594f6aa4f4f", // d3d5795ee2b61ba6 at the build that kept the loaded graph
		"d6e820c745edbb6fbbd8aaafd860ac8ff6288c0a7a1e4b56774223eb6a611896",
	},
	"predicate variable/horizontal": {
		"2057744b3ab20b8cfe2a01ad8cb4451e10b128227f892f597ab8ae34fb08b879",
		"7adf436fffb7c467e173e1f0fa4dff9c8b0dee3a71a94ac4706f2237e89e82a5",
		"54971ab11d78fe1e83ca3e5dfa9f523a5b5662eea136b9edafbea3826714e0a4", // 4c3e47ea810a91a8 at the build that kept the loaded graph
		"d8fd931ee2aa70e5cd66d68ed9b60998e77b463ede24fd7c051b54d7a48623d4",
	},
}
