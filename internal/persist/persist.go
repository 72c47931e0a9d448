// Package persist serializes the outcome of the offline pipeline — term
// dictionary, hot/cold split, selected patterns, fragments with their
// minterm constraints, and the allocation — so a deployment can be
// reloaded without re-running mining, selection and fragmentation
// (Section 7.1's "global statistics file generated at fragmentation and
// allocation time"). The format is gob over DTO structs; it is internal
// and versioned, not a public interchange format.
package persist

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"rdffrag/internal/allocation"
	"rdffrag/internal/fragment"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Version guards against decoding snapshots from incompatible builds.
// Version 2 added the WAL checkpoint stamp (WALSeq) and the dictionary
// fingerprint header.
const Version = 2

// Snapshot is the serialized deployment state.
type Snapshot struct {
	Version int
	Sites   int
	Kind    uint8 // fragment.Kind of the fragmentation

	// WALSeq is the last write-ahead-log sequence number applied to
	// this snapshot; recovery replays only records past it. Zero for
	// snapshots of non-durable deployments.
	WALSeq uint64
	// DictFP fingerprints the Terms list (rdf.Dict.Fingerprint over all
	// of them); Load refuses a snapshot whose rebuilt dictionary hashes
	// differently, so a checkpoint can never be replayed against a
	// mismatched dictionary.
	DictFP uint64

	Terms        []TermDTO
	GraphTriples [][3]uint32
	FreqProps    []uint32

	Patterns  []PatternDTO
	Fragments []FragmentDTO
	Cold      ColdDTO
}

// TermDTO mirrors rdf.Term.
type TermDTO struct {
	Kind  uint8
	Value string
}

// VertexDTO mirrors sparql.Vertex (IsVar encoded by Var != "").
type VertexDTO struct {
	Var  string
	Term uint32
}

// EdgeDTO mirrors sparql.Edge.
type EdgeDTO struct {
	From, To int
	Pred     uint32
	PredVar  string
}

// PatternDTO mirrors mining.Pattern.
type PatternDTO struct {
	Code    string
	Support int
	Verts   []VertexDTO
	Edges   []EdgeDTO
}

// ConstraintDTO mirrors fragment.Constraint.
type ConstraintDTO struct {
	Vertex int
	Equal  bool
	Value  uint32
}

// FragmentDTO mirrors fragment.Fragment plus its site.
type FragmentDTO struct {
	ID          int
	Kind        uint8
	PatternIdx  int // index into Snapshot.Patterns; -1 for none
	Constraints []ConstraintDTO
	Triples     [][3]uint32
	Site        int
}

// ColdDTO holds the cold fragment.
type ColdDTO struct {
	ID      int
	Triples [][3]uint32
	Site    int
}

// State bundles what Save needs and what Load returns.
type State struct {
	Graph *rdf.Graph
	HC    *fragment.HotCold
	Frag  *fragment.Fragmentation
	Alloc *allocation.Allocation
	Sites int
	// WALSeq stamps (Save) / reports (Load) the last applied WAL
	// sequence number; see Snapshot.WALSeq.
	WALSeq uint64
}

// Save encodes the state to w. Delta-carrying graphs (a live
// deployment that has taken updates since its last compaction) are
// compacted first: the snapshot's triple lists already contain the delta
// triples either way, but compact-on-save means the surviving in-memory
// deployment keeps serving pure-CSR reads and the snapshot marks a clean
// LSM generation.
func Save(w io.Writer, st *State) error {
	st.Graph.Compact()
	if st.HC != nil {
		st.HC.Hot.Compact()
		st.HC.Cold.Compact()
	}
	for _, f := range st.Frag.All() {
		f.Graph.Compact()
	}
	snap := &Snapshot{Version: Version, Sites: st.Sites, Kind: uint8(st.Frag.Kind), WALSeq: st.WALSeq}

	d := st.Graph.Dict
	snap.Terms = make([]TermDTO, d.Len())
	for i := 0; i < d.Len(); i++ {
		t := d.Decode(rdf.ID(i))
		snap.Terms[i] = TermDTO{Kind: uint8(t.Kind), Value: t.Value}
	}
	snap.DictFP = d.Fingerprint(len(snap.Terms))
	snap.GraphTriples = encodeTriples(st.Graph.Triples())
	for p := range st.HC.FreqProps {
		snap.FreqProps = append(snap.FreqProps, uint32(p))
	}
	slices.Sort(snap.FreqProps) // equal states encode to equal bytes

	patIdx := make(map[string]int)
	addPattern := func(p *mining.Pattern) int {
		if p == nil {
			return -1
		}
		if i, ok := patIdx[p.Code]; ok {
			return i
		}
		dto := PatternDTO{Code: p.Code, Support: p.Support}
		for _, v := range p.Graph.Verts {
			dto.Verts = append(dto.Verts, VertexDTO{Var: v.Var, Term: uint32(v.Term)})
		}
		for _, e := range p.Graph.Edges {
			dto.Edges = append(dto.Edges, EdgeDTO{From: e.From, To: e.To, Pred: uint32(e.Pred), PredVar: e.PredVar})
		}
		patIdx[p.Code] = len(snap.Patterns)
		snap.Patterns = append(snap.Patterns, dto)
		return patIdx[p.Code]
	}

	for _, f := range st.Frag.Fragments {
		dto := FragmentDTO{
			ID:         f.ID,
			Kind:       uint8(f.Kind),
			PatternIdx: addPattern(f.Pattern),
			Triples:    encodeTriples(f.Graph.Triples()),
			Site:       st.Alloc.SiteOf[f.ID],
		}
		if f.Minterm != nil {
			for _, c := range f.Minterm.Constraints {
				dto.Constraints = append(dto.Constraints, ConstraintDTO{
					Vertex: c.Vertex, Equal: c.Equal, Value: uint32(c.Value),
				})
			}
		}
		snap.Fragments = append(snap.Fragments, dto)
	}
	if st.Frag.Cold != nil {
		snap.Cold = ColdDTO{
			ID:      st.Frag.Cold.ID,
			Triples: encodeTriples(st.Frag.Cold.Graph.Triples()),
			Site:    st.Alloc.ColdSite,
		}
	}
	return gob.NewEncoder(w).Encode(snap)
}

// Load decodes a snapshot and rebuilds the in-memory structures.
func Load(r io.Reader) (*State, error) {
	var snap Snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("persist: decode: %w", err)
	}
	if snap.Version != Version {
		return nil, fmt.Errorf("persist: snapshot version %d, want %d", snap.Version, Version)
	}

	dict := rdf.NewDict()
	for i, t := range snap.Terms {
		id := dict.Encode(rdf.Term{Kind: rdf.TermKind(t.Kind), Value: t.Value})
		if id != rdf.ID(i) {
			return nil, fmt.Errorf("persist: dictionary IDs diverged at %d", i)
		}
	}
	if fp := dict.Fingerprint(len(snap.Terms)); fp != snap.DictFP {
		return nil, fmt.Errorf("persist: dictionary fingerprint mismatch (snapshot %016x, rebuilt %016x): snapshot is corrupt or from a different deployment", snap.DictFP, fp)
	}

	all := decodeTriples(snap.GraphTriples)
	freq := make(map[rdf.ID]bool, len(snap.FreqProps))
	for _, p := range snap.FreqProps {
		freq[rdf.ID(p)] = true
	}
	var hot, cold []rdf.Triple
	for _, t := range all {
		if freq[t.P] {
			hot = append(hot, t)
		} else {
			cold = append(cold, t)
		}
	}
	graph := rdf.NewFrozen(dict, all)
	hc := &fragment.HotCold{
		Hot:       rdf.NewFrozen(dict, hot),
		Cold:      rdf.NewFrozen(dict, cold),
		FreqProps: freq,
	}

	patterns := make([]*mining.Pattern, len(snap.Patterns))
	for i, pd := range snap.Patterns {
		g := sparql.NewGraph()
		for _, e := range pd.Edges {
			vf := pd.Verts[e.From]
			vt := pd.Verts[e.To]
			g.AddTriplePattern(
				sparql.Vertex{Var: vf.Var, Term: rdf.ID(vf.Term)},
				sparql.Edge{Pred: rdf.ID(e.Pred), PredVar: e.PredVar},
				sparql.Vertex{Var: vt.Var, Term: rdf.ID(vt.Term)},
			)
		}
		patterns[i] = &mining.Pattern{Graph: g, Code: pd.Code, Support: pd.Support}
	}

	fr := &fragment.Fragmentation{Hot: hc.Hot, Kind: fragment.Kind(snap.Kind)}
	alloc := &allocation.Allocation{
		Sites:    make([][]*fragment.Fragment, snap.Sites),
		SiteOf:   make(map[int]int),
		ColdSite: -1,
	}
	for _, fd := range snap.Fragments {
		g := rdf.NewFrozen(dict, decodeTriples(fd.Triples))
		f := &fragment.Fragment{
			ID:    fd.ID,
			Kind:  fragment.Kind(fd.Kind),
			Graph: g,
		}
		if fd.PatternIdx >= 0 {
			f.Pattern = patterns[fd.PatternIdx]
		}
		if len(fd.Constraints) > 0 {
			mt := &fragment.Minterm{Pattern: f.Pattern}
			for _, c := range fd.Constraints {
				mt.Constraints = append(mt.Constraints, fragment.Constraint{
					Vertex: c.Vertex, Equal: c.Equal, Value: rdf.ID(c.Value),
				})
			}
			f.Minterm = mt
		}
		fr.Fragments = append(fr.Fragments, f)
		if fd.Site < 0 || fd.Site >= snap.Sites {
			return nil, fmt.Errorf("persist: fragment %d has invalid site %d", fd.ID, fd.Site)
		}
		alloc.Sites[fd.Site] = append(alloc.Sites[fd.Site], f)
		alloc.SiteOf[fd.ID] = fd.Site
	}
	if len(snap.Cold.Triples) > 0 || snap.Cold.ID != 0 {
		g := rdf.NewFrozen(dict, decodeTriples(snap.Cold.Triples))
		fr.Cold = &fragment.Fragment{ID: snap.Cold.ID, Kind: fragment.ColdKind, Graph: g}
		if g.NumTriples() > 0 {
			if snap.Cold.Site < 0 || snap.Cold.Site >= snap.Sites {
				return nil, fmt.Errorf("persist: cold fragment has invalid site %d", snap.Cold.Site)
			}
			alloc.Sites[snap.Cold.Site] = append(alloc.Sites[snap.Cold.Site], fr.Cold)
			alloc.SiteOf[fr.Cold.ID] = snap.Cold.Site
			alloc.ColdSite = snap.Cold.Site
		}
	}

	return &State{Graph: graph, HC: hc, Frag: fr, Alloc: alloc, Sites: snap.Sites, WALSeq: snap.WALSeq}, nil
}

func encodeTriples(ts []rdf.Triple) [][3]uint32 {
	out := make([][3]uint32, len(ts))
	for i, t := range ts {
		out[i] = [3]uint32{uint32(t.S), uint32(t.P), uint32(t.O)}
	}
	return out
}

func decodeTriples(ts [][3]uint32) []rdf.Triple {
	out := make([]rdf.Triple, len(ts))
	for i, t := range ts {
		out[i] = rdf.Triple{S: rdf.ID(t[0]), P: rdf.ID(t[1]), O: rdf.ID(t[2])}
	}
	return out
}
