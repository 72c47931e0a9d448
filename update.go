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

// ErrRemoteSites is returned by Update, UpdateTTL, Delete and Overwrite on
// a server started with remote sites (ServerConfig.Remote.Sites, the
// `-site` flag of `rdffrag serve`). A batch changes this process's graphs
// only; a site process answers from its own copy, which never receives
// it, so the update would be acknowledged and yet invisible through every
// remote site. /update maps it to 501.
var ErrRemoteSites = errors.New("rdffrag: updates are refused while sites are remote (-site): site processes never receive them")

// Update parses an N-Triples document and applies its triples to the live
// deployment through the server's update path: triples land in the delta
// overlays of the global graph, the hot/cold split, and the relevant
// fragment graphs — no rebuild, no re-fragmentation — without blocking
// in-flight queries, which keep reading the MVCC view they pinned at
// admission. Queries admitted after Update returns see the new triples.
// The server's default TTL, if any, stamps them.
func (s *Server) Update(ctx context.Context, ntriples string) (*UpdateResult, error) {
	return s.apply(ctx, "", ntriples, s.ttl)
}

// UpdateTTL is Update with an explicit time-to-live: a positive ttl stamps
// the batch's triples with the deadline now+ttl, and the server's sweeper
// deletes them through the normal durable update path once it passes.
// Zero means no expiry (ignoring any server-wide default).
func (s *Server) UpdateTTL(ctx context.Context, ntriples string, ttl time.Duration) (*UpdateResult, error) {
	return s.apply(ctx, "", ntriples, ttl)
}

// Overwrite atomically replaces one triple set with another: delDoc's
// triples are removed and insDoc's inserted as one batch — one WAL
// record, one MVCC publish — so no query ever sees the deletes without
// the inserts, and crash recovery replays the whole swap or none of it.
// Either side may be empty (an empty delDoc is an insert, an empty insDoc
// a delete), but not both. A positive ttl stamps the inserted triples.
func (s *Server) Overwrite(ctx context.Context, delDoc, insDoc string, ttl time.Duration) (*UpdateResult, error) {
	return s.apply(ctx, delDoc, insDoc, ttl)
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
	return s.apply(ctx, ntriples, "", 0)
}

// apply is every update's one path: it parses the delete side, then the
// insert side, and applies both as one batch. A positive ttl stamps the
// inserted triples with the deadline now+ttl, kept to the microsecond the
// WAL record and the checkpoint store, so replay rebuilds it exactly.
func (s *Server) apply(ctx context.Context, delDoc, insDoc string, ttl time.Duration) (*UpdateResult, error) {
	if s.remote {
		return nil, ErrRemoteSites
	}
	dict := s.dep.db.graph.Dict
	del, nDel, err := parseBatch(dict, delDoc, false)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadUpdate, err)
	}
	ins, nIns, err := parseBatch(dict, insDoc, true)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadUpdate, err)
	}
	if nDel+nIns == 0 {
		return nil, fmt.Errorf("%w: the batch carried no triples", ErrBadUpdate)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(del)+len(ins) == 0 {
		// Every delete triple named a term the deployment has never seen
		// and there is nothing to insert: a whole-batch no-op, kept off the
		// writer path so a durable server doesn't log it.
		return &UpdateResult{
			DeltaLen:    s.dep.db.graph.DeltaLen(),
			Compactions: s.dep.db.graph.Compactions(),
		}, nil
	}
	b := serve.Batch{Del: del, Ins: ins}
	if ttl > 0 && len(ins) > 0 {
		b.Deadline = time.Now().Add(ttl).Truncate(time.Microsecond)
	}
	st, err := s.inner.Apply(ctx, b)
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// parseBatch parses one side of an update batch, an N-Triples document,
// into deployment-dictionary triples, and reports how many statements the
// document held. It is atomic: the whole document parses before any term
// is resolved, so a batch rejected for syntax anywhere — even on its last
// line — leaves nothing behind, not even interned terms in the shared
// dictionary. With intern, new terms are interned (an insert side, and
// WAL replay); without, a statement naming a term the deployment has
// never seen cannot be present, so it is dropped — a no-op delete, not an
// error, and no term that exists nowhere pollutes the dictionary. An
// empty document is a valid empty side.
func parseBatch(d *rdf.Dict, doc string, intern bool) (ts []rdf.Triple, n int, err error) {
	var terms []rdf.Term
	err = rdf.ScanNTriples(strings.NewReader(doc), func(s, p, o rdf.Term) error {
		terms = append(terms, s, p, o)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	n = len(terms) / 3
	ts = make([]rdf.Triple, 0, n)
	for ; len(terms) > 0; terms = terms[3:] {
		var id [3]rdf.ID
		known := true
		for i := range id {
			if intern {
				id[i] = d.Encode(terms[i])
			} else {
				var ok bool
				id[i], ok = d.Lookup(terms[i])
				known = known && ok
			}
		}
		if known {
			ts = append(ts, rdf.Triple{S: id[0], P: id[1], O: id[2]})
		}
	}
	return ts, n, nil
}

// applyBatch is the serve layer's Apply sink: the batch's delete-set is
// tombstoned first (each matched triple removed everywhere it was
// routed), then its insert-set routes each new triple into every graph
// the query path might read it from. Both sets land under one caller
// (the serve layer holds the writer mutex) and one subsequent MVCC
// publish, which is what makes an overwrite atomic to readers; the
// delete-then-insert order plus latest-op-wins tombstone resolution
// means an overwrite that deletes and reinserts the same triple keeps
// it. Concurrent queries read pinned MVCC views throughout. It is also
// the only writer of the TTL schedule, so live apply and WAL replay
// build the same one.
func (dep *Deployment) applyBatch(b serve.Batch) serve.UpdateStats {
	added, deleted := 0, 0
	for _, t := range b.Del {
		dep.schedule(t, time.Time{})
		if !dep.db.graph.Delete(t) {
			continue // not present: a no-op, not a phantom
		}
		deleted++
		dep.unrouteTriple(t)
	}
	for _, t := range b.Ins {
		dep.schedule(t, b.Deadline)
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

// schedule records t's TTL deadline, latest write wins: a deadline sets
// it, the zero time — a delete, or an insert without a TTL — clears it.
// While nothing is pending it costs one length check.
func (dep *Deployment) schedule(t rdf.Triple, deadline time.Time) {
	switch {
	case !deadline.IsZero():
		if dep.expiry == nil {
			dep.expiry = make(map[rdf.Triple]time.Time)
		}
		dep.expiry[t] = deadline
	case len(dep.expiry) > 0:
		delete(dep.expiry, t)
	}
}

// due lists the triples whose deadline is at or before now: the serve
// layer's Due hook, called under the writer mutex.
func (dep *Deployment) due(now time.Time) []rdf.Triple {
	var ts []rdf.Triple
	for t, at := range dep.expiry {
		if !at.After(now) {
			ts = append(ts, t)
		}
	}
	return ts
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
