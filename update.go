package rdffrag

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"rdffrag/internal/fragment"
	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/serve"
	"rdffrag/internal/sparql"
)

// UpdateResult reports what one live-update batch did: triples new to
// the deployment (duplicates skipped), triples a delete batch removed,
// the global graph's delta overlay size after the batch, and its
// cumulative compaction count.
type UpdateResult = serve.UpdateStats

// ErrNoUpdater is returned by Server.Update when the server has no update
// sink (servers started by Deployment.StartServer always have one).
var ErrNoUpdater = serve.ErrNoUpdater

// ErrBadUpdate wraps every client-side update rejection — unparsable
// N-Triples, an empty batch — so the HTTP layer can map exactly these to
// 400 and route everything else (overload, durability failures) to the
// status class it belongs to.
var ErrBadUpdate = errors.New("rdffrag: bad update batch")

// Update parses an N-Triples document and applies its triples to the live
// deployment through the server's update path: triples land in the delta
// overlays of the global graph, the hot/cold split, and the relevant
// fragment graphs — no rebuild, no re-fragmentation — without blocking
// in-flight queries, which keep reading the MVCC view they pinned at
// admission. Queries admitted after Update returns see the new triples.
func (s *Server) Update(ctx context.Context, ntriples string) (*UpdateResult, error) {
	return s.UpdateTTL(ctx, ntriples, s.ttl)
}

// UpdateTTL is Update with an explicit time-to-live: a positive ttl
// schedules the batch's triples for expiry — the server's sweeper
// deletes them through the normal durable update path once ttl elapses.
// Zero means no expiry (ignoring any server-wide default).
func (s *Server) UpdateTTL(ctx context.Context, ntriples string, ttl time.Duration) (*UpdateResult, error) {
	ts, err := parseUpdateBatch(s.dep.db.graph.Dict, ntriples)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadUpdate, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := s.inner.Apply(ctx, serve.Batch{Op: serve.OpInsert, Ins: ts, TTL: ttl})
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// Overwrite atomically replaces one triple set with another: delDoc's
// triples are removed and insDoc's inserted as one batch — one WAL
// record, one MVCC publish — so no query ever sees the deletes without
// the inserts, and crash recovery replays the whole swap or none of it.
// Either side may be empty (an empty delDoc degrades to a TTL-stamped
// insert, an empty insDoc to a delete), but not both. A positive ttl
// schedules the inserted triples for expiry.
func (s *Server) Overwrite(ctx context.Context, delDoc, insDoc string, ttl time.Duration) (*UpdateResult, error) {
	dict := s.dep.db.graph.Dict
	del, delParsed, err := parseLookupSet(dict, delDoc)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadUpdate, err)
	}
	ins, err := parseTripleSet(dict, insDoc)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadUpdate, err)
	}
	if delParsed == 0 && len(ins) == 0 {
		return nil, fmt.Errorf("%w: overwrite carried no triples", ErrBadUpdate)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(del) == 0 && len(ins) == 0 {
		// Every delete triple referenced terms the deployment has never
		// seen and there is nothing to insert: a whole-batch no-op, kept
		// off the writer path so a durable server doesn't log it.
		return &UpdateResult{
			DeltaLen:    s.dep.db.graph.DeltaLen(),
			Compactions: s.dep.db.graph.Compactions(),
		}, nil
	}
	st, err := s.inner.Apply(ctx, serve.Batch{Op: serve.OpOverwrite, Del: del, Ins: ins, TTL: ttl})
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// Sweep forces one TTL sweep at the current instant, deleting every
// expired triple through the normal durable update path; it reports how
// many triples went away. The background sweeper does this on its
// interval — Sweep exists for deterministic tests and for embedders
// that disabled the background sweeper.
func (s *Server) Sweep() int { return s.inner.Sweep(time.Now()) }

// Delete parses an N-Triples document and removes its triples from the
// live deployment through the same serialized writer path as Update:
// matched triples are tombstoned in the delta overlays of the global
// graph, the hot/cold split and every fragment graph, and a fresh MVCC
// view publishes the removal atomically — in-flight queries keep the
// view they pinned. Deleting a triple the deployment never held is a
// no-op (it does not even intern the unknown terms), so Delete's stats
// report what actually went away.
func (s *Server) Delete(ctx context.Context, ntriples string) (*UpdateResult, error) {
	ts, err := parseDeleteBatch(s.dep.db.graph.Dict, ntriples)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadUpdate, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(ts) == 0 {
		// Every triple referenced a term the deployment has never seen,
		// so nothing can match: succeed as a whole-batch no-op without
		// touching the writer path (a durable server must not log an
		// empty batch — replay would reject it as carrying no triples).
		return &UpdateResult{
			DeltaLen:    s.dep.db.graph.DeltaLen(),
			Compactions: s.dep.db.graph.Compactions(),
		}, nil
	}
	st, err := s.inner.Delete(ctx, ts)
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// parseTerms parses an N-Triples document into its statements' terms,
// three to a statement, touching no dictionary.
func parseTerms(ntriples string) ([]rdf.Term, error) {
	var terms []rdf.Term
	err := rdf.ScanNTriples(strings.NewReader(ntriples), func(s, p, o rdf.Term) error {
		terms = append(terms, s, p, o)
		return nil
	})
	return terms, err
}

// parseTripleSet parses an N-Triples document into deployment-dictionary
// triples, atomically: it parses into a term list first, so a batch
// rejected for syntax anywhere — even on its last line — leaves nothing
// behind, not even interned terms in the shared dictionary. Only a fully
// valid batch encodes into the deployment dictionary (concurrency-safe
// inserts); a valid batch that then fails admission (server closed) may
// leave its terms interned, which is benign — terms are
// content-addressed and carry no graph state. An empty document is a
// valid empty set (overwrite sides may be empty); callers that require
// triples check themselves. WAL replay parses recovered records through
// the same path, so recovery and the live path agree on what a batch
// means.
func parseTripleSet(d *rdf.Dict, ntriples string) ([]rdf.Triple, error) {
	terms, err := parseTerms(ntriples)
	if err != nil {
		return nil, err
	}
	ts := make([]rdf.Triple, 0, len(terms)/3)
	for ; len(terms) > 0; terms = terms[3:] {
		ts = append(ts, rdf.Triple{S: d.Encode(terms[0]), P: d.Encode(terms[1]), O: d.Encode(terms[2])})
	}
	return ts, nil
}

// parseUpdateBatch is parseTripleSet for paths where an empty document
// is a client error rather than an empty set.
func parseUpdateBatch(d *rdf.Dict, ntriples string) ([]rdf.Triple, error) {
	ts, err := parseTripleSet(d, ntriples)
	if err != nil {
		return nil, err
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("rdffrag: update carried no triples")
	}
	return ts, nil
}

// parseLookupSet parses a document with the same whole-batch atomicity
// as parseTripleSet, but resolves terms through the deployment
// dictionary without interning: a triple whose subject, predicate or
// object the deployment has never seen cannot possibly be present, so
// it is dropped from the set (a no-op delete, not an error) instead of
// polluting the shared dictionary with terms that exist nowhere. It
// additionally reports how many triples the document parsed to, so
// callers can tell an empty document from a fully-dropped one.
func parseLookupSet(d *rdf.Dict, ntriples string) (ts []rdf.Triple, parsed int, err error) {
	terms, err := parseTerms(ntriples)
	if err != nil {
		return nil, 0, err
	}
	parsed = len(terms) / 3
	ts = make([]rdf.Triple, 0, parsed)
	for ; len(terms) > 0; terms = terms[3:] {
		s, okS := d.Lookup(terms[0])
		p, okP := d.Lookup(terms[1])
		o, okO := d.Lookup(terms[2])
		if !okS || !okP || !okO {
			continue
		}
		ts = append(ts, rdf.Triple{S: s, P: p, O: o})
	}
	return ts, parsed, nil
}

// parseDeleteBatch is parseLookupSet for paths where an empty document
// is a client error rather than an empty set.
func parseDeleteBatch(d *rdf.Dict, ntriples string) ([]rdf.Triple, error) {
	ts, parsed, err := parseLookupSet(d, ntriples)
	if err != nil {
		return nil, err
	}
	if parsed == 0 {
		return nil, fmt.Errorf("rdffrag: delete carried no triples")
	}
	return ts, nil
}

// encodeUpdateBatch renders an already-encoded batch back to N-Triples
// text — the write-ahead-log payload. Logging term text instead of raw
// IDs makes replay independent of dictionary ID assignment: IDs diverge
// across restarts (queries intern ad-hoc constants the log never sees),
// but re-encoding the text through parseUpdateBatch lands each term on
// whatever ID the recovered dictionary assigns it.
func encodeUpdateBatch(d *rdf.Dict, ts []rdf.Triple) []byte {
	var buf strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&buf, "%s %s %s .\n", d.Decode(t.S), d.Decode(t.P), d.Decode(t.O))
	}
	return []byte(buf.String())
}

// applyBatch is the serve layer's Apply sink: the batch's delete-set is
// tombstoned first (each matched triple removed everywhere it was
// routed), then its insert-set routes each new triple into every graph
// the query path might read it from. Both sets land under one caller
// (the serve layer holds the writer mutex) and one subsequent MVCC
// publish, which is what makes an overwrite atomic to readers; the
// delete-then-insert order plus latest-op-wins tombstone resolution
// means an overwrite that deletes and reinserts the same triple keeps
// it. Concurrent queries read pinned MVCC views throughout.
func (dep *Deployment) applyBatch(b serve.Batch) serve.UpdateStats {
	added, deleted := 0, 0
	for _, t := range b.Del {
		if !dep.db.graph.Delete(t) {
			continue // not present: a no-op, not a phantom
		}
		deleted++
		dep.unrouteTriple(t)
	}
	for _, t := range b.Ins {
		if !dep.db.graph.Add(t) {
			continue // duplicate
		}
		added++
		dep.routeTriple(t)
	}
	return serve.UpdateStats{
		Added:       added,
		Deleted:     deleted,
		DeltaLen:    dep.db.graph.DeltaLen(),
		Compactions: dep.db.graph.Compactions(),
	}
}

// routeTriple places one new triple so every decomposition class finds
// it: hot-predicate triples go to the hot graph and — via incremental
// pattern maintenance — to every fragment whose generating pattern they
// complete a match of (pattern-routed subqueries read exactly those;
// fragments may overlap, and the control site dedups), everything else
// goes to the cold graph and the cold fragment (cold subqueries read it
// there; global subqueries read all fragments, cold included). Fragment
// graphs keep their CSR — triples land in their delta overlays.
func (dep *Deployment) routeTriple(t rdf.Triple) {
	if dep.hc.FreqProps[t.P] {
		dep.hc.Hot.Add(t)
		// The writer matches against its own current state — a snapshot
		// taken right after the Add, so the anchored pattern search sees t.
		gsn := dep.db.graph.Snapshot()
		placed := false
		for _, f := range dep.frag.Fragments {
			if dep.maintainFragment(f, t, gsn) {
				placed = true
			}
		}
		gsn.Close()
		if placed {
			return
		}
		// A hot triple that completes no pattern match yet (selection
		// integrity makes this rare: one-edge patterns match any triple
		// of their property) stays reachable through the cold fragment,
		// the catch-all every global subquery reads. Later updates that
		// do complete a match re-discover it in the global graph.
	} else {
		dep.hc.Cold.Add(t)
	}
	dep.coldFragmentAdd(t)
}

// unrouteTriple is routeTriple's inverse for a triple just removed from
// the global graph: it tombstones t in the hot/cold split and in every
// fragment graph that may carry it. Fragment Delete is a no-op where t
// never landed, so no placement bookkeeping is needed. Partner triples
// of pattern matches t used to complete stay in their fragments — a
// fragment's contents remain a superset of its pattern's current
// matches, which keeps pattern-routed subqueries complete (the
// control-site join filters non-matches) while every graph stays a
// subset of what the deployment actually holds: t itself is gone
// everywhere.
func (dep *Deployment) unrouteTriple(t rdf.Triple) {
	if dep.hc.FreqProps[t.P] {
		dep.hc.Hot.Delete(t)
	} else {
		dep.hc.Cold.Delete(t)
	}
	for _, f := range dep.frag.Fragments {
		f.Graph.Delete(t)
	}
	if dep.frag.Cold != nil {
		dep.frag.Cold.Graph.Delete(t)
	}
}

// maintainFragment incrementally maintains one pattern fragment for a
// new triple t: for every pattern edge t can bind, the pattern is
// anchored on t (the edge's endpoints and predicate replaced by t's
// constants) and matched against the global graph, and every triple of
// every match joins the fragment. Fragment contents are MatchedGraph(P)
// — matches only, not all property-relevant triples — so this is what
// pulls in partner triples that were pruned at fragmentation time
// because they completed no match back then (e.g. a <name> edge whose
// subject only now gained the pattern's other property). It reports
// whether t completed at least one match (every anchored match contains
// t itself).
func (dep *Deployment) maintainFragment(f *fragment.Fragment, t rdf.Triple, gsn *rdf.Snapshot) bool {
	if f.Pattern == nil {
		return false
	}
	p := f.Pattern.Graph
	found := false
	for ei, e := range p.Edges {
		if !e.IsPredVar() && e.Pred != t.P {
			continue
		}
		if from := p.Verts[e.From]; !from.IsVar() && from.Term != t.S {
			continue
		}
		if to := p.Verts[e.To]; !to.IsVar() && to.Term != t.O {
			continue
		}
		if e.From == e.To && t.S != t.O {
			continue // a self-loop edge cannot bind a non-loop triple
		}
		match.ForEach(anchorPattern(p, ei, t), gsn, match.Options{}, func(m *match.Match) bool {
			found = true
			for _, tr := range m.Triples {
				f.Graph.Add(tr)
			}
			return true
		})
	}
	return found
}

// anchorPattern returns a copy of pattern p with edge ei bound to the
// data triple t: the edge's endpoint variables become the constants t.S
// and t.O everywhere they occur, and its predicate variable (if any)
// becomes t.P on every edge sharing it. Matches of the anchored pattern
// over the full graph are exactly the pattern matches t participates in
// through edge ei (a superset for patterns reusing the endpoints, which
// only adds other real matches — safe, fragments may overlap).
func anchorPattern(p *sparql.Graph, ei int, t rdf.Triple) *sparql.Graph {
	e := p.Edges[ei]
	subst := func(vi int) sparql.Vertex {
		switch vi {
		case e.From:
			return sparql.Vertex{Term: t.S}
		case e.To:
			return sparql.Vertex{Term: t.O}
		}
		return p.Verts[vi]
	}
	g := sparql.NewGraph()
	for _, pe := range p.Edges {
		pe2 := sparql.Edge{Pred: pe.Pred, PredVar: pe.PredVar}
		if e.IsPredVar() && pe.PredVar == e.PredVar {
			pe2 = sparql.Edge{Pred: t.P}
		}
		g.AddTriplePattern(subst(pe.From), pe2, subst(pe.To))
	}
	return g
}

// coldFragmentAdd appends to the cold fragment. StartServer materializes
// and places the fragment before serving begins (ensureColdFragment), so
// on the live path this is a pure delta append into an already-placed
// graph — no fragmentation or allocation metadata mutates while
// lock-free queries read it.
func (dep *Deployment) coldFragmentAdd(t rdf.Triple) {
	dep.ensureColdFragment()
	dep.frag.Cold.Graph.Add(t)
}

// ensureColdFragment materializes and places the cold fragment
// if the deployment doesn't have one yet (the cold graph was empty at
// fragmentation time, so no cold site was allocated). It must run before
// queries execute concurrently: it mutates the fragmentation and
// allocation metadata the query router reads without a lock. Idempotent.
func (dep *Deployment) ensureColdFragment() {
	fr := dep.frag
	if fr.Cold == nil {
		maxID := 0
		for _, f := range fr.Fragments {
			if f.ID >= maxID {
				maxID = f.ID + 1
			}
		}
		fr.Cold = &fragment.Fragment{
			ID:    maxID,
			Kind:  fragment.ColdKind,
			Graph: rdf.NewGraph(dep.db.graph.Dict),
		}
	}
	if dep.alloc.ColdSite < 0 {
		site := 0
		if err := dep.cluster.Place(site, fr.Cold.ID, fr.Cold.Graph); err != nil {
			return // site 0 always exists; unreachable
		}
		dep.alloc.Sites[site] = append(dep.alloc.Sites[site], fr.Cold)
		dep.alloc.SiteOf[fr.Cold.ID] = site
		dep.alloc.ColdSite = site
	}
}
