package rdffrag

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"
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
			delta := db.Graph().DeltaLen()
			var buf bytes.Buffer
			if err := srv.Save(&buf); err != nil {
				t.Fatalf("Server.Save: %v", err)
			}
			if delta == 0 || db.Graph().DeltaLen() != delta {
				t.Errorf("Save moved the delta from %d to %d triples", delta, db.Graph().DeltaLen())
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
	n := db.Graph().NumTriples()
	if _, err := srv.Update(context.Background(), "<a> <b> nonsense\n"); err == nil {
		t.Fatal("malformed update accepted")
	}
	if _, err := srv.Update(context.Background(), "# only a comment\n"); err == nil {
		t.Fatal("empty update accepted")
	}
	if db.Graph().NumTriples() != n {
		t.Fatalf("failed update mutated the graph: %d -> %d", n, db.Graph().NumTriples())
	}
}
