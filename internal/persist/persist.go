// Package persist serializes the outcome of the offline pipeline — term
// dictionary, hot/cold split, selected patterns, fragments with their
// minterm constraints, and the allocation — so a deployment can be
// reloaded without re-running mining, selection and fragmentation
// (Section 7.1's "global statistics file generated at fragmentation and
// allocation time"). It is also the durable checkpoint, so Save streams:
// it reads pinned snapshots, writes a chunk at a time, and holds neither
// the image nor a triple list. The format is internal and versioned, not
// a public interchange format:
//
//	gob  {Version}                 one stamp, so any older image is named
//	gob  header                    counts, patterns, the fragment
//	                               manifest, the TTL schedule
//	gob  {Kinds, Values} ...       the terms in ID order, termChunk a chunk
//	gob  []uint32 ...              each graph's (S, P, O) IDs, flat,
//	                               tripleChunk triples a chunk: the hot
//	                               graph, each site's graph, the cold graph
//	u32  CRC-32C (Castagnoli, little-endian) of every byte before it
//
// These are the graphs a deployment holds: the hot/cold split, whose cold
// graph is also its cold fragment, and one graph per site, the union of
// its hot fragments. A fragment is an entry of the manifest — ID, kind,
// pattern, constraints, site and size — and no triples of its own.
package persist

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"maps"
	"slices"
	"time"

	"rdffrag/internal/allocation"
	"rdffrag/internal/fragment"
	"rdffrag/internal/mining"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Version guards against decoding images from incompatible builds.
// Version 2 added the WAL checkpoint stamp and the dictionary
// fingerprint; version 3 streams the terms and triples in chunks behind
// a header and ends in a CRC trailer; version 4 adds the TTL schedule to
// the header; version 5 writes the hot graph and each site's graph where
// version 4 wrote the global graph and each fragment's triples, and the
// fragments' sizes in the manifest. Load reads version 5 only.
const Version = 5

// Chunk sizes. A save holds one chunk of each at a time.
const (
	termChunk   = 1024
	tripleChunk = 4096
)

// maxSites bounds the site count a header may claim: it sizes the
// allocation's site table, and no header count may size an allocation
// unchecked.
const maxSites = 1 << 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stamp is an image's first value. Gob matches fields by name, so every
// version's first value decodes into it.
type stamp struct{ Version int }

// header is everything but the terms and the triples.
type header struct {
	Sites int
	Kind  uint8 // fragment.Kind of the fragmentation
	// WALSeq is the last write-ahead-log sequence number applied to the
	// image; recovery replays only records past it. Zero for images of
	// non-durable deployments.
	WALSeq uint64
	// DictFP fingerprints the Terms terms (rdf.Dict.Fingerprint); Load
	// refuses an image whose rebuilt dictionary hashes differently, so a
	// checkpoint can never be replayed against a mismatched dictionary.
	DictFP    uint64
	Terms     int
	FreqProps []uint32
	Patterns  []PatternDTO
	Fragments []FragmentDTO // the manifest: the cold fragment, if any, last
	// Graphs counts the triples of each graph the image lists: the hot
	// graph, each site's, the cold graph.
	Graphs []int
	// Pending and Deadlines are the TTL schedule in (S, P, O) order:
	// Pending holds each scheduled triple's IDs, flat, and Deadlines its
	// deadline in Unix microseconds.
	Pending   []uint32
	Deadlines []int64
}

// termsDTO is one chunk of terms: kinds and lexical values, index-aligned.
type termsDTO struct {
	Kinds  []uint8
	Values []string
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

// FragmentDTO is a manifest entry: a fragment's metadata, its site and
// its size.
type FragmentDTO struct {
	ID          int
	Kind        uint8
	PatternIdx  int // index into header.Patterns; -1 for none
	Constraints []ConstraintDTO
	Site        int // -1: a cold fragment not placed yet
	Size        int // fragment.Fragment.Size
}

// State is what Load returns, and what Capture pins. HC.Cold is
// Frag.Cold's graph, as fragmentation builds it, and HC.Hot's dictionary
// is the state's.
type State struct {
	HC    *fragment.HotCold
	Frag  *fragment.Fragmentation
	Alloc *allocation.Allocation
	Sites int
	// WALSeq stamps (Capture) / reports (Load) the last applied WAL
	// sequence number; see header.WALSeq.
	WALSeq uint64
	// Expiry is the TTL schedule: each pending triple's deadline. Load
	// returns nil when nothing is pending.
	Expiry map[rdf.Triple]time.Time
}

// Image is a deployment pinned at one batch boundary for Save: a snapshot
// of each of its graphs, the dictionary prefix their triples draw on, and
// the header, fragment manifest included. Writers may go on once Capture
// returns; nothing Save reads changes under it. Close releases the
// snapshots.
type Image struct {
	hdr    header
	dict   *rdf.Dict
	graphs []*rdf.Snapshot // the hot graph, each site's, the cold graph
}

// Capture pins st for Save. The caller orders it with st's writer — the
// durable checkpointer and Server.Save hold the writer lock — so the
// image is one batch boundary; the lock can go as soon as Capture
// returns. The term count is read after the snapshots are pinned, so it
// covers every ID they hold.
func Capture(st *State) *Image {
	img := &Image{
		hdr:  header{Sites: st.Sites, Kind: uint8(st.Frag.Kind), WALSeq: st.WALSeq},
		dict: st.HC.Hot.Dict,
	}
	for _, g := range slices.Concat([]*rdf.Graph{st.HC.Hot}, st.Alloc.Graphs, []*rdf.Graph{st.HC.Cold}) {
		img.graphs = append(img.graphs, g.Snapshot())
		img.hdr.Graphs = append(img.hdr.Graphs, img.graphs[len(img.graphs)-1].NumTriples())
	}
	frags := st.Frag.Fragments
	if c := st.Frag.Cold; c != nil {
		frags = append(slices.Clip(frags), c)
	}
	img.hdr.manifest(frags, st.Alloc.SiteOf)
	for p := range st.HC.FreqProps {
		img.hdr.FreqProps = append(img.hdr.FreqProps, uint32(p))
	}
	slices.Sort(img.hdr.FreqProps) // equal states encode to equal bytes
	for _, t := range slices.SortedFunc(maps.Keys(st.Expiry), rdf.CompareSPO) {
		img.hdr.Pending = append(img.hdr.Pending, uint32(t.S), uint32(t.P), uint32(t.O))
		img.hdr.Deadlines = append(img.hdr.Deadlines, st.Expiry[t].UnixMicro())
	}
	img.hdr.Terms = img.dict.Len()
	img.hdr.DictFP = img.dict.Fingerprint(img.hdr.Terms)
	return img
}

// manifest lists the fragments, each at its site (-1: not placed yet),
// and the patterns they name, each once.
func (h *header) manifest(frags []*fragment.Fragment, siteOf map[int]int) {
	patIdx := make(map[string]int)
	for _, f := range frags {
		dto := FragmentDTO{ID: f.ID, Kind: uint8(f.Kind), PatternIdx: -1, Site: -1, Size: f.Size}
		if s, ok := siteOf[f.ID]; ok {
			dto.Site = s
		}
		if p := f.Pattern; p != nil {
			i, ok := patIdx[p.Code]
			if !ok {
				i = len(h.Patterns)
				patIdx[p.Code] = i
				pd := PatternDTO{Code: p.Code, Support: p.Support}
				for _, v := range p.Graph.Verts {
					pd.Verts = append(pd.Verts, VertexDTO{Var: v.Var, Term: uint32(v.Term)})
				}
				for _, e := range p.Graph.Edges {
					pd.Edges = append(pd.Edges, EdgeDTO{From: e.From, To: e.To, Pred: uint32(e.Pred), PredVar: e.PredVar})
				}
				h.Patterns = append(h.Patterns, pd)
			}
			dto.PatternIdx = i
		}
		if f.Minterm != nil {
			for _, c := range f.Minterm.Constraints {
				dto.Constraints = append(dto.Constraints, ConstraintDTO{Vertex: c.Vertex, Equal: c.Equal, Value: uint32(c.Value)})
			}
		}
		h.Fragments = append(h.Fragments, dto)
	}
}

// WALSeq is the sequence stamp the image was captured with.
func (img *Image) WALSeq() uint64 { return img.hdr.WALSeq }

// Close releases the image's snapshots. Idempotent.
func (img *Image) Close() {
	for _, sn := range img.graphs {
		sn.Close()
	}
}

// Save streams img to w. It reads the pinned snapshots and the
// dictionary prefix, which concurrent writers leave as they were, and
// changes nothing: it needs no lock.
// What it allocates is one chunk of each kind and the encoder's buffers,
// whatever the size of the deployment.
func Save(w io.Writer, img *Image) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	cw := &crcWriter{w: bw}
	enc := gob.NewEncoder(cw)
	hdr := &img.hdr
	if err := enc.Encode(stamp{Version}); err != nil {
		return fmt.Errorf("persist: encode: %w", err)
	}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("persist: encode: %w", err)
	}
	var terms termsDTO
	for lo := 0; lo < hdr.Terms; lo += termChunk {
		terms.Kinds, terms.Values = terms.Kinds[:0], terms.Values[:0]
		for id := lo; id < min(lo+termChunk, hdr.Terms); id++ {
			t := img.dict.Decode(rdf.ID(id))
			terms.Kinds = append(terms.Kinds, uint8(t.Kind))
			terms.Values = append(terms.Values, t.Value)
		}
		if err := enc.Encode(&terms); err != nil {
			return fmt.Errorf("persist: encode: %w", err)
		}
	}
	c := &chunks{enc: enc, ids: make([]uint32, 0, 3*tripleChunk)}
	for i, sn := range img.graphs {
		if err := c.graph(sn.All(), hdr.Graphs[i]); err != nil {
			return err
		}
	}
	if _, err := bw.Write(binary.LittleEndian.AppendUint32(nil, cw.sum)); err != nil {
		return fmt.Errorf("persist: write: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("persist: write: %w", err)
	}
	return nil
}

// chunks streams graphs as chunks of flat (S, P, O) IDs through ids, a
// buffer of one chunk's capacity.
type chunks struct {
	enc *gob.Encoder
	ids []uint32
	n   int // triples of the current graph written so far
}

// graph writes one graph's triples, which the header counted want.
func (c *chunks) graph(ts iter.Seq[rdf.Triple], want int) error {
	c.n = 0
	for t := range ts {
		c.ids = append(c.ids, uint32(t.S), uint32(t.P), uint32(t.O))
		if len(c.ids) == cap(c.ids) {
			if err := c.flush(); err != nil {
				return err
			}
		}
	}
	if err := c.flush(); err != nil {
		return err
	}
	if c.n != want {
		return fmt.Errorf("persist: a graph counted %d triples and listed %d", want, c.n)
	}
	return nil
}

func (c *chunks) flush() error {
	if len(c.ids) == 0 {
		return nil
	}
	c.n += len(c.ids) / 3
	err := c.enc.Encode(c.ids)
	c.ids = c.ids[:0]
	if err != nil {
		return fmt.Errorf("persist: encode: %w", err)
	}
	return nil
}

// crcWriter checksums what passes through it.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, castagnoli, p)
	return c.w.Write(p)
}

// crcReader checksums what is read through it. It is an io.ByteReader,
// so gob reads exactly its messages from it and buffers nothing ahead:
// the trailer is read past it, unsummed.
type crcReader struct {
	r   *bufio.Reader
	sum uint32
	one [1]byte
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, castagnoli, p[:n])
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.one[0] = b
		c.sum = crc32.Update(c.sum, castagnoli, c.one[:])
	}
	return b, err
}

// Load decodes an image and rebuilds the in-memory structures. It checks
// every count and ID against what the image holds before anything is
// built from it, and builds nothing until the CRC trailer has matched.
// The cold graph is the cold fragment's — one graph, as fragmentation
// builds it — and each site's graph is the Graph of every hot fragment
// there.
func Load(r io.Reader) (*State, error) {
	cr := &crcReader{r: bufio.NewReaderSize(r, 64<<10)}
	dec := gob.NewDecoder(cr)
	var v stamp
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("persist: decode: %w", err)
	}
	if v.Version != Version {
		return nil, fmt.Errorf("persist: checkpoint format v%d; this build reads v%d only", v.Version, Version)
	}
	var hdr header
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("persist: decode header: %w", err)
	}
	patterns, err := hdr.check()
	if err != nil {
		return nil, err
	}
	dict, err := readTerms(dec, hdr.Terms)
	if err != nil {
		return nil, err
	}
	var ids []uint32
	graphs := make([][]rdf.Triple, len(hdr.Graphs))
	for i, n := range hdr.Graphs {
		if graphs[i], err = readTriples(dec, n, hdr.Terms, &ids); err != nil {
			return nil, err
		}
	}
	var trailer [4]byte
	if _, err := io.ReadFull(cr.r, trailer[:]); err != nil {
		return nil, fmt.Errorf("persist: checkpoint ends before its CRC trailer: %w", err)
	}
	if want := binary.LittleEndian.Uint32(trailer[:]); want != cr.sum {
		return nil, fmt.Errorf("persist: checkpoint CRC mismatch (trailer %08x, content %08x): the image is corrupt", want, cr.sum)
	}
	if _, err := cr.r.ReadByte(); err != io.EOF {
		return nil, errors.New("persist: data after the checkpoint's CRC trailer")
	}
	if fp := dict.Fingerprint(hdr.Terms); fp != hdr.DictFP {
		return nil, fmt.Errorf("persist: dictionary fingerprint mismatch (snapshot %016x, rebuilt %016x): snapshot is corrupt or from a different deployment", hdr.DictFP, fp)
	}

	freq := make(map[rdf.ID]bool, len(hdr.FreqProps))
	for _, p := range hdr.FreqProps {
		freq[rdf.ID(p)] = true
	}
	hc := &fragment.HotCold{
		Hot:       rdf.NewFrozen(dict, graphs[0]),
		Cold:      rdf.NewFrozen(dict, graphs[hdr.Sites+1]),
		FreqProps: freq,
	}
	fr := &fragment.Fragmentation{Hot: hc.Hot, Kind: fragment.Kind(hdr.Kind)}
	alloc := &allocation.Allocation{
		Sites:    make([][]*fragment.Fragment, hdr.Sites),
		SiteOf:   make(map[int]int),
		ColdSite: -1,
		Graphs:   make([]*rdf.Graph, hdr.Sites),
	}
	for s := range alloc.Graphs {
		alloc.Graphs[s] = rdf.NewFrozen(dict, graphs[1+s])
	}
	for _, fd := range hdr.Fragments {
		f := &fragment.Fragment{
			ID:   fd.ID,
			Kind: fragment.Kind(fd.Kind),
			Size: fd.Size,
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
		if f.Kind == fragment.ColdKind {
			f.Graph, fr.Cold = hc.Cold, f
			if fd.Site < 0 {
				continue // placed when the server starts
			}
			alloc.ColdSite = fd.Site
		} else {
			f.Graph = alloc.Graphs[fd.Site]
			fr.Fragments = append(fr.Fragments, f)
		}
		alloc.Sites[fd.Site] = append(alloc.Sites[fd.Site], f)
		alloc.SiteOf[fd.ID] = fd.Site
	}
	st := &State{HC: hc, Frag: fr, Alloc: alloc, Sites: hdr.Sites, WALSeq: hdr.WALSeq}
	for i, deadline := range hdr.Deadlines {
		if st.Expiry == nil {
			st.Expiry = make(map[rdf.Triple]time.Time, len(hdr.Deadlines))
		}
		p := hdr.Pending[3*i:]
		st.Expiry[rdf.Triple{S: rdf.ID(p[0]), P: rdf.ID(p[1]), O: rdf.ID(p[2])}] = time.UnixMicro(deadline)
	}
	return st, nil
}

// check refuses a header whose counts, indexes or IDs reach past what the
// image holds, and rebuilds its patterns.
func (h *header) check() ([]*mining.Pattern, error) {
	if h.Sites < 1 || h.Sites > maxSites {
		return nil, fmt.Errorf("persist: %d sites", h.Sites)
	}
	if len(h.Graphs) != h.Sites+2 {
		return nil, fmt.Errorf("persist: %d graphs for %d sites", len(h.Graphs), h.Sites)
	}
	if h.Terms < 0 || slices.ContainsFunc(h.Graphs, func(n int) bool { return n < 0 }) {
		return nil, fmt.Errorf("persist: negative count (%d terms, graphs of %v triples)", h.Terms, h.Graphs)
	}
	if len(h.Pending) != 3*len(h.Deadlines) {
		return nil, fmt.Errorf("persist: %d pending IDs for %d deadlines", len(h.Pending), len(h.Deadlines))
	}
	for _, p := range slices.Concat(h.FreqProps, h.Pending) {
		if err := h.term(p); err != nil {
			return nil, err
		}
	}
	patterns := make([]*mining.Pattern, len(h.Patterns))
	for i, pd := range h.Patterns {
		g := sparql.NewGraph()
		for _, e := range pd.Edges {
			if e.From < 0 || e.From >= len(pd.Verts) || e.To < 0 || e.To >= len(pd.Verts) {
				return nil, fmt.Errorf("persist: pattern %d: edge %d→%d outside its %d vertices", i, e.From, e.To, len(pd.Verts))
			}
			vf, vt := pd.Verts[e.From], pd.Verts[e.To]
			if err := errors.Join(h.constant(vf.Var, vf.Term), h.constant(e.PredVar, e.Pred), h.constant(vt.Var, vt.Term)); err != nil {
				return nil, err
			}
			g.AddTriplePattern(
				sparql.Vertex{Var: vf.Var, Term: rdf.ID(vf.Term)},
				sparql.Edge{Pred: rdf.ID(e.Pred), PredVar: e.PredVar},
				sparql.Vertex{Var: vt.Var, Term: rdf.ID(vt.Term)},
			)
		}
		patterns[i] = &mining.Pattern{Graph: g, Code: pd.Code, Support: pd.Support}
	}
	seen := make(map[int]bool, len(h.Fragments))
	for i, fd := range h.Fragments {
		if seen[fd.ID] {
			return nil, fmt.Errorf("persist: fragment ID %d appears twice", fd.ID)
		}
		seen[fd.ID] = true
		if fd.Size < 0 {
			return nil, fmt.Errorf("persist: fragment %d has size %d", fd.ID, fd.Size)
		}
		cold := fragment.Kind(fd.Kind) == fragment.ColdKind
		if cold && i < len(h.Fragments)-1 {
			return nil, fmt.Errorf("persist: cold fragment %d is not the last", fd.ID)
		}
		if (!cold || fd.Site != -1) && (fd.Site < 0 || fd.Site >= h.Sites) {
			return nil, fmt.Errorf("persist: fragment %d has invalid site %d", fd.ID, fd.Site)
		}
		if fd.PatternIdx < -1 || fd.PatternIdx >= len(patterns) {
			return nil, fmt.Errorf("persist: fragment %d names pattern %d of %d", fd.ID, fd.PatternIdx, len(patterns))
		}
		for _, c := range fd.Constraints {
			if fd.PatternIdx < 0 || c.Vertex < 0 || c.Vertex >= len(patterns[fd.PatternIdx].Graph.Verts) {
				return nil, fmt.Errorf("persist: fragment %d constrains vertex %d its pattern does not have", fd.ID, c.Vertex)
			}
			if err := h.term(c.Value); err != nil {
				return nil, err
			}
		}
	}
	return patterns, nil
}

// term refuses an ID the image's dictionary does not have.
func (h *header) term(id uint32) error {
	if int64(id) >= int64(h.Terms) {
		return fmt.Errorf("persist: term ID %d is at or above the term count %d", id, h.Terms)
	}
	return nil
}

// constant is term for a pattern position that is not a variable.
func (h *header) constant(variable string, id uint32) error {
	if variable != "" {
		return nil
	}
	return h.term(id)
}

// readTerms rebuilds the dictionary from the term chunks, ID for ID. The
// terms are read whole before the dictionary interns them, in one pass
// without a lock per term; the list grows with what the chunks hold, not
// with n.
func readTerms(dec *gob.Decoder, n int) (*rdf.Dict, error) {
	var terms []rdf.Term
	var chunk termsDTO
	for len(terms) < n {
		chunk.Kinds, chunk.Values = chunk.Kinds[:0], chunk.Values[:0]
		if err := dec.Decode(&chunk); err != nil {
			return nil, fmt.Errorf("persist: decode terms: %w", err)
		}
		if len(chunk.Kinds) == 0 || len(chunk.Kinds) != len(chunk.Values) || len(chunk.Kinds) > n-len(terms) {
			return nil, fmt.Errorf("persist: a chunk of %d kinds and %d values at term %d of %d", len(chunk.Kinds), len(chunk.Values), len(terms), n)
		}
		for i, k := range chunk.Kinds {
			if rdf.TermKind(k) > rdf.Blank {
				return nil, fmt.Errorf("persist: term %d has kind %d", len(terms), k)
			}
			terms = append(terms, rdf.Term{Kind: rdf.TermKind(k), Value: chunk.Values[i]})
		}
	}
	dict := rdf.NewDict(terms...)
	if dict.Len() < n { // a term came twice: the dictionary parts from the list at the first repeat
		at, text := 0, dict.Rendered()
		for at < len(text) && text[at] == terms[at].String() {
			at++
		}
		return nil, fmt.Errorf("persist: dictionary IDs diverged at %d", at)
	}
	return dict, nil
}

// readTriples reads the chunks of one graph's n triples through *ids,
// refusing an ID the dictionary does not have. The list grows with what
// the chunks hold, not with n.
func readTriples(dec *gob.Decoder, n, terms int, ids *[]uint32) ([]rdf.Triple, error) {
	var out []rdf.Triple
	for len(out) < n {
		if err := dec.Decode(ids); err != nil {
			return nil, fmt.Errorf("persist: decode triples: %w", err)
		}
		c := *ids
		if len(c) == 0 || len(c)%3 != 0 || len(c)/3 > n-len(out) {
			return nil, fmt.Errorf("persist: a chunk of %d IDs at triple %d of %d", len(c), len(out), n)
		}
		for i := 0; i < len(c); i += 3 {
			for _, id := range c[i : i+3] {
				if int64(id) >= int64(terms) {
					return nil, fmt.Errorf("persist: triple ID %d is at or above the term count %d", id, terms)
				}
			}
			out = append(out, rdf.Triple{S: rdf.ID(c[i]), P: rdf.ID(c[i+1]), O: rdf.ID(c[i+2])})
		}
	}
	return out, nil
}
