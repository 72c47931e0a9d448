package rdffrag

import (
	"bytes"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 3, MinSupport: 0.2}, phWorkload)
	query := `SELECT ?x WHERE { ?x <influencedBy> <Aristotle> . ?x <name> ?n . }`
	want, err := dep.Query(query)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}

	var buf bytes.Buffer
	if err := dep.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}

	restored, err := LoadDeployment(&buf)
	if err != nil {
		t.Fatalf("LoadDeployment: %v", err)
	}
	got, err := restored.Query(query)
	if err != nil {
		t.Fatalf("restored Query: %v", err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("restored rows = %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Errorf("row %d col %d: %q vs %q", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
	// Structural stats must survive.
	ws, gs := dep.Stats(), restored.Stats()
	if gs.Fragments != ws.Fragments || gs.HotTriples != ws.HotTriples ||
		gs.ColdTriples != ws.ColdTriples || gs.Sites != ws.Sites {
		t.Errorf("stats drifted: %+v vs %+v", gs, ws)
	}
	if gs.Strategy != Vertical {
		t.Errorf("restored strategy = %s", gs.Strategy)
	}
}

func TestSaveLoadHorizontal(t *testing.T) {
	dep := deployPhilosophers(t, Config{Strategy: Horizontal, Sites: 3, MinSupport: 0.2}, phWorkload)
	var buf bytes.Buffer
	if err := dep.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored, err := LoadDeployment(&buf)
	if err != nil {
		t.Fatalf("LoadDeployment: %v", err)
	}
	if restored.Stats().Strategy != Horizontal {
		t.Errorf("restored strategy = %s", restored.Stats().Strategy)
	}
	res, err := restored.Query(`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> <Ethics> . }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestLoadDeploymentGarbage(t *testing.T) {
	if _, err := LoadDeployment(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

func TestSaveLoadColdQueries(t *testing.T) {
	dep := deployPhilosophers(t, Config{Sites: 2, MinSupport: 0.2}, phWorkload)
	var buf bytes.Buffer
	if err := dep.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored, err := LoadDeployment(&buf)
	if err != nil {
		t.Fatalf("LoadDeployment: %v", err)
	}
	res, err := restored.Query(`SELECT ?x WHERE { ?x <imageSkyline> ?img . }`)
	if err != nil {
		t.Fatalf("cold Query: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("cold rows = %v", res.Rows)
	}
}
