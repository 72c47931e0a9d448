package transport

// Dictionary-agreement tests: rows cross the wire as raw dictionary
// IDs, so the client's dictionary must be a prefix of the site's. A
// diverged deployment must be rejected deterministically and without
// retries — by the site (409), which checks the client's whole stamp
// against its own dictionary. A genuine prefix (client behind an
// append-only site) must keep working.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// prefixCopy clones the first n terms of d into a fresh dictionary,
// reproducing the exact ID assignment of the shared prefix.
func prefixCopy(d *rdf.Dict, n int) *rdf.Dict {
	out := rdf.NewDict()
	for i := 0; i < n; i++ {
		out.Encode(d.Decode(rdf.ID(i)))
	}
	return out
}

func TestDictMismatchServerRejectsWithoutRetry(t *testing.T) {
	c, d, _ := newTestCluster(t, 10)
	_, hs := newSite(t, c, d, nil)

	// A rogue deployment: shorter than the server's dictionary but
	// diverged from ID 0, so the server can (and must) refuse before
	// evaluating anything.
	rogue := rdf.NewDict()
	for i := 0; i < 5; i++ {
		rogue.Encode(rdf.NewIRI(fmt.Sprintf("rogue%d", i)))
	}
	q := sparql.MustParse(rogue, `SELECT ?x ?y WHERE { ?x <p> ?y . }`)
	if rogue.Len() >= d.Len() {
		t.Fatalf("test setup: rogue dict (%d terms) must be shorter than the server's (%d)", rogue.Len(), d.Len())
	}

	cl := NewSiteClient(ClientConfig{BaseURL: hs.URL, Site: 0, Dict: rogue})
	got := newCollector()
	err := cl.EvalStream(context.Background(), testRequest(q), 8, got.sink)
	if err == nil {
		t.Fatal("diverged dictionary accepted by the server")
	}
	if !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), "dictionary") {
		t.Fatalf("want an HTTP 409 dictionary error, got: %v", err)
	}
	if got.n != 0 {
		t.Fatalf("%d rows leaked past a dictionary mismatch", got.n)
	}
	m := cl.SiteMetrics()
	if m.Retries != 0 || m.Attempts != 1 {
		t.Fatalf("mismatch must not be retried: %+v", m)
	}
}

func TestDictMismatchClientRejectsWithoutRetry(t *testing.T) {
	c, d, _ := newTestCluster(t, 10)
	_, hs := newSite(t, c, d, nil)

	// A rogue deployment longer than the server's dictionary: its stamp
	// covers terms the site does not hold, so it is no prefix of the
	// site's dictionary and the site refuses it before evaluating
	// anything.
	rogue := rdf.NewDict()
	for i := 0; i < d.Len()+10; i++ {
		rogue.Encode(rdf.NewIRI(fmt.Sprintf("rogue%d", i)))
	}
	q := sparql.MustParse(rogue, `SELECT ?x ?y WHERE { ?x <p> ?y . }`)

	cl := NewSiteClient(ClientConfig{BaseURL: hs.URL, Site: 0, Dict: rogue})
	got := newCollector()
	err := cl.EvalStream(context.Background(), testRequest(q), 8, got.sink)
	if err == nil {
		t.Fatal("diverged dictionary accepted")
	}
	if !strings.Contains(err.Error(), "dictionary mismatch") {
		t.Fatalf("want the site's dictionary mismatch error, got: %v", err)
	}
	if got.n != 0 {
		t.Fatalf("%d rows leaked past a dictionary mismatch", got.n)
	}
	m := cl.SiteMetrics()
	if m.Retries != 0 || m.Attempts != 1 {
		t.Fatalf("mismatch must not be retried: %+v", m)
	}
}

// TestDictPrefixClientStillWorks pins the compatibility direction: a
// client whose dictionary is a strict prefix of the server's (the
// server interned new terms after an update; the dictionary is
// append-only) evaluates normally — agreement is on the client's prefix,
// not on equal lengths.
func TestDictPrefixClientStillWorks(t *testing.T) {
	c, d, q := newTestCluster(t, 10)
	req := testRequest(q)
	want := oracle(t, c, req, 8)

	client := prefixCopy(d, d.Len())
	// The server side grows past the client's view.
	for i := 0; i < 25; i++ {
		d.Encode(rdf.NewIRI(fmt.Sprintf("later%d", i)))
	}
	_, hs := newSite(t, c, d, nil)

	cq := sparql.MustParse(client, `SELECT ?x ?y WHERE { ?x <p> ?y . }`)
	cl := NewSiteClient(ClientConfig{BaseURL: hs.URL, Site: 0, Dict: client})
	got := newCollector()
	if err := cl.EvalStream(context.Background(), testRequest(cq), 8, got.sink); err != nil {
		t.Fatalf("prefix client rejected: %v", err)
	}
	if !equalMultisets(got.multiset(), want) {
		t.Errorf("prefix client rows %v != direct rows %v", got.multiset(), want)
	}
	m := cl.SiteMetrics()
	if m.Retries != 0 || m.Failures != 0 {
		t.Fatalf("prefix client should be one clean call: %+v", m)
	}
}
