package sparql

import (
	"slices"
	"testing"

	"rdffrag/internal/rdf"
)

func TestEmbedsSimple(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT * WHERE { ?x <name> ?n . ?x <country> ?c . ?x <postal> ?p . }`)
	pat := MustParse(d, `SELECT * WHERE { ?a <country> ?b . ?a <postal> ?z . }`)
	if !Embeds(pat, q) {
		t.Fatal("pattern should embed in query")
	}
	miss := MustParse(d, `SELECT * WHERE { ?a <country> ?b . ?a <missing> ?z . }`)
	if Embeds(miss, q) {
		t.Fatal("pattern with unused predicate embedded")
	}
}

func TestEmbedsDirection(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT * WHERE { ?x <p> ?y . }`)
	rev := MustParse(d, `SELECT * WHERE { ?y <p> ?x . }`)
	// Same shape up to renaming: must embed.
	if !Embeds(rev, q) {
		t.Fatal("renamed pattern should embed")
	}
	// A 2-edge chain cannot embed into a single edge.
	chain := MustParse(d, `SELECT * WHERE { ?a <p> ?b . ?b <p> ?c . }`)
	if Embeds(chain, q) {
		t.Fatal("chain embedded into single edge")
	}
}

func TestEmbedsConstants(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT * WHERE { ?x <influencedBy> <Aristotle> . ?x <name> ?n . }`)
	pat := MustParse(d, `SELECT * WHERE { ?a <influencedBy> <Aristotle> . }`)
	if !Embeds(pat, q) {
		t.Fatal("constant-anchored pattern should embed")
	}
	wrong := MustParse(d, `SELECT * WHERE { ?a <influencedBy> <Plato> . }`)
	if Embeds(wrong, q) {
		t.Fatal("pattern with different constant embedded")
	}
	// Pattern variable can bind to the constant vertex.
	gen := MustParse(d, `SELECT * WHERE { ?a <influencedBy> ?who . }`)
	if !Embeds(gen, q) {
		t.Fatal("generalized pattern should embed")
	}
}

func TestEmbedsVariablePredicate(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT * WHERE { ?x ?p <b> . }`)
	pat := MustParse(d, `SELECT * WHERE { ?x ?q ?y . }`)
	if !Embeds(pat, q) {
		t.Fatal("var-pred pattern should embed anywhere")
	}
	constPat := MustParse(d, `SELECT * WHERE { ?x <k> ?y . }`)
	if Embeds(constPat, q) {
		t.Fatal("const-pred pattern must not match var-pred query edge")
	}
}

func TestEmbedsInjectivity(t *testing.T) {
	d := rdf.NewDict()
	// Query has a single edge; a pattern needing two distinct edges with
	// the same label must not fold onto one query edge.
	q := MustParse(d, `SELECT * WHERE { ?x <p> ?y . }`)
	pat := MustParse(d, `SELECT * WHERE { ?a <p> ?b . ?c <p> ?d . }`)
	if Embeds(pat, q) {
		t.Fatal("edge-injectivity violated")
	}
}

func TestFindEmbeddingsCount(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT * WHERE { ?x <p> ?a . ?x <p> ?b . }`)
	pat := MustParse(d, `SELECT * WHERE { ?s <p> ?o . }`)
	embs := FindEmbeddings(pat, q, 0)
	if len(embs) != 2 {
		t.Fatalf("embeddings = %d, want 2", len(embs))
	}
	limited := FindEmbeddings(pat, q, 1)
	if len(limited) != 1 {
		t.Fatalf("limited embeddings = %d, want 1", len(limited))
	}
}

func TestCoveredEdgeSets(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT * WHERE { ?x <name> ?n . ?x <country> ?c . ?y <name> ?m . }`)
	pat := MustParse(d, `SELECT * WHERE { ?s <name> ?o . }`)
	sets := CoveredEdgeSets(pat, q)
	if len(sets) != 2 {
		t.Fatalf("edge sets = %v, want 2 singletons", sets)
	}
	two := MustParse(d, `SELECT * WHERE { ?s <name> ?o . ?s <country> ?c . }`)
	sets = CoveredEdgeSets(two, q)
	if len(sets) != 1 || len(sets[0]) != 2 {
		t.Fatalf("edge sets = %v, want one pair", sets)
	}
}

func TestEmbedsTriangleSelfLoopSafety(t *testing.T) {
	d := rdf.NewDict()
	tri := MustParse(d, `SELECT * WHERE { ?a <p> ?b . ?b <p> ?c . ?c <p> ?a . }`)
	if !Embeds(tri, tri) {
		t.Fatal("triangle should embed in itself")
	}
	chain := MustParse(d, `SELECT * WHERE { ?a <p> ?b . ?b <p> ?c . }`)
	if !Embeds(chain, tri) {
		t.Fatal("chain should embed in triangle")
	}
	if Embeds(tri, chain) {
		t.Fatal("triangle embedded in chain")
	}
}

// TestAppendShapeKey: two queries share a key exactly when they differ
// only in their constants' values, their variables' names, projection
// and LIMIT; a predicate variable is keyed by the first edge carrying it.
func TestAppendShapeKey(t *testing.T) {
	d := rdf.NewDict()
	key := func(q string) string { return string(AppendShapeKey(nil, MustParse(d, q))) }
	base := key(`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Plato> . }`)
	for _, same := range []string{
		`SELECT ?a ?m WHERE { ?a <name> ?m . ?a <influencedBy> <Kant> . } LIMIT 5`,
		`SELECT * WHERE { ?y <name> ?z . ?y <influencedBy> <Hume> . }`,
	} {
		if key(same) != base {
			t.Errorf("%s: key differs from its template's", same)
		}
	}
	for _, other := range []string{
		`SELECT ?x WHERE { ?x <influencedBy> <Plato> . ?x <name> ?n . }`, // reordered
		`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> ?y . }`,      // a variable for the constant
		`SELECT ?x WHERE { ?x <name> ?n . ?x <mainInterest> <Plato> . }`, // another predicate
		`SELECT ?x WHERE { ?x <name> ?n . ?n <influencedBy> <Plato> . }`, // another join vertex
	} {
		if key(other) == base {
			t.Errorf("%s: shares its key with another shape", other)
		}
	}
	if key(`SELECT * WHERE { ?x ?p ?y . ?y ?p ?z . }`) == key(`SELECT * WHERE { ?x ?p ?y . ?y ?q ?z . }`) {
		t.Error("a repeated predicate variable and two distinct ones share a key")
	}
	if key(`SELECT * WHERE { ?x ?p ?y . ?y ?p ?z . }`) != key(`SELECT * WHERE { ?a ?r ?b . ?b ?r ?c . }`) {
		t.Error("renaming a repeated predicate variable changed the key")
	}
}

// TestVars: the sorted distinct variable names of vertices and edge
// labels, constants left out.
func TestVars(t *testing.T) {
	d := rdf.NewDict()
	q := MustParse(d, `SELECT ?x WHERE { ?x ?p ?y . ?y ?p <c> . ?y <name> ?n . }`)
	if got, want := q.Vars(), []string{"n", "p", "x", "y"}; !slices.Equal(got, want) {
		t.Errorf("Vars() = %v, want %v", got, want)
	}
}
