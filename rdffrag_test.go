package rdffrag

import (
	"fmt"
	"strings"
	"testing"
)

// phNT is the philosopher fixture; the lockstep runs (runLockstep) load
// it into the model too.
const phNT = `
<Aristotle> <influencedBy> <Plato> .
<Aristotle> <mainInterest> <Ethics> .
<Aristotle> <name> "Aristotle" .
<Aristotle> <placeOfDeath> <Chalcis> .
<Friedrich_Nietzsche> <influencedBy> <Aristotle> .
<Friedrich_Nietzsche> <mainInterest> <Ethics> .
<Friedrich_Nietzsche> <name> "Friedrich Nietzsche" .
<Max_Horkheimer> <influencedBy> <Karl_Marx> .
<Max_Horkheimer> <mainInterest> <Social_theory> .
<Max_Horkheimer> <name> "Max Horkheimer" .
<Boethius> <mainInterest> <Religion> .
<Boethius> <name> "Boethius" .
<Chalcis> <country> <Greece> .
<Chalcis> <postalCode> "341 00" .
<Chalcis> <imageSkyline> <Chalkida.JPG> .
`

func loadPhilosophers(t *testing.T, cfg Config) *DB {
	t.Helper()
	db := Open(cfg)
	if _, err := db.LoadNTriples(strings.NewReader(phNT)); err != nil {
		t.Fatalf("LoadNTriples: %v", err)
	}
	return db
}

// deployPhilosophers deploys the philosopher fixture over workload.
func deployPhilosophers(t *testing.T, cfg Config, workload []string) *Deployment {
	t.Helper()
	dep, err := loadPhilosophers(t, cfg).Deploy(workload)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return dep
}

var phWorkload = []string{
	`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`,
	`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`,
	`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Aristotle> . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Karl_Marx> . }`,
	`SELECT ?c WHERE { ?x <placeOfDeath> ?p . ?p <country> ?c . }`,
	`SELECT ?c WHERE { ?x <placeOfDeath> ?p . ?p <country> ?c . }`,
}

func TestEndToEndVertical(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 3, MinSupport: 0.2}, phWorkload)
	res, err := dep.Query(`SELECT ?x WHERE { ?x <influencedBy> <Aristotle> . ?x <name> ?n . }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "<Friedrich_Nietzsche>" {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Stats.Subqueries < 1 {
		t.Error("no subqueries recorded")
	}
}

func TestEndToEndHorizontal(t *testing.T) {
	dep := deployPhilosophers(t, Config{Strategy: Horizontal, Sites: 3, MinSupport: 0.2}, phWorkload)
	res, err := dep.Query(`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> <Ethics> . }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v, want Aristotle and Nietzsche", res.Rows)
	}
}

func TestDeployStats(t *testing.T) {
	db := loadPhilosophers(t, Config{Sites: 2, MinSupport: 0.2})
	loaded := db.NumTriples()
	dep, err := db.Deploy(phWorkload)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if db.NumTriples() != 0 || db.Graph().Dict != dep.hc.Hot.Dict {
		t.Errorf("Deploy left the store %d triples, or another dictionary", db.NumTriples())
	}
	s := dep.Stats()
	if s.Triples != loaded {
		t.Errorf("stats triples = %d, want %d", s.Triples, loaded)
	}
	if s.HotTriples+s.ColdTriples != s.Triples {
		t.Errorf("hot %d + cold %d != %d", s.HotTriples, s.ColdTriples, s.Triples)
	}
	if s.ColdTriples == 0 {
		t.Error("imageSkyline should be cold")
	}
	if s.Redundancy < 1 {
		t.Errorf("redundancy = %f", s.Redundancy)
	}
	// The sites store every triple at least once, and a triple two of a
	// site's fragments share once: no more than the fragments' sizes sum.
	if s.StoredTriples < s.Triples || float64(s.StoredTriples) > s.Redundancy*float64(s.Triples) {
		t.Errorf("stored %d triples of %d at redundancy %.2f", s.StoredTriples, s.Triples, s.Redundancy)
	}
	if s.WorkloadCoverage <= 0.9 {
		t.Errorf("coverage = %f", s.WorkloadCoverage)
	}
	if d := dep.Describe(); !strings.Contains(d, "strategy=vertical") || !strings.Contains(d, fmt.Sprintf("redundancy=%.2f stored=%d ", s.Redundancy, s.StoredTriples)) {
		t.Errorf("Describe = %q", d)
	}
}

func TestQueryColdProperty(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 2, MinSupport: 0.2}, phWorkload)
	res, err := dep.Query(`SELECT ?x WHERE { ?x <imageSkyline> ?img . }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "<Chalcis>" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestDeployEmptyWorkload(t *testing.T) {
	db := loadPhilosophers(t, Config{})
	if _, err := db.Deploy(nil); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestDeployBadWorkloadQuery(t *testing.T) {
	db := loadPhilosophers(t, Config{})
	if _, err := db.Deploy([]string{"not sparql"}); err == nil {
		t.Error("malformed workload query accepted")
	}
}

func TestQueryBadSyntax(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 2, MinSupport: 0.2}, phWorkload)
	if _, err := dep.Query(`SELECT {`); err == nil {
		t.Error("malformed query accepted")
	}
}

func TestAddTripleAPI(t *testing.T) {
	db := Open(Config{Sites: 2, MinSupport: 0.5})
	db.AddTriple("a", "p", "b")
	db.AddTripleLit("a", "name", "A")
	if db.NumTriples() != 2 {
		t.Fatalf("triples = %d", db.NumTriples())
	}
	dep, err := db.Deploy([]string{
		`SELECT ?x WHERE { ?x <p> ?y . }`,
		`SELECT ?x WHERE { ?x <name> ?n . }`,
	})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	res, err := dep.Query(`SELECT ?x WHERE { ?x <p> ?y . }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestNetworkStatsAccumulate(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 2, MinSupport: 0.2}, phWorkload)
	dep.ResetNetworkStats()
	if _, err := dep.Query(`SELECT ?x WHERE { ?x <name> ?n . }`); err != nil {
		t.Fatalf("Query: %v", err)
	}
	msgs, _ := dep.NetworkStats()
	if msgs == 0 {
		t.Error("no network traffic recorded")
	}
}
