package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"rdffrag/internal/fragment"
	"rdffrag/internal/rdf"
	"rdffrag/internal/testenv"
)

func buildState(t testing.TB, horizontal bool) *State {
	t.Helper()
	return stateOf(t, testenv.Options{Horizontal: horizontal})
}

func stateOf(t testing.TB, o testenv.Options) *State {
	t.Helper()
	return stateOfEnv(buildEnv(t, o))
}

func buildEnv(t testing.TB, o testenv.Options) *testenv.Env {
	t.Helper()
	env, err := testenv.Build(o)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return env
}

func stateOfEnv(env *testenv.Env) *State {
	return &State{
		HC:    env.HC,
		Frag:  env.Frag,
		Alloc: env.Alloc,
		Sites: len(env.Alloc.Sites),
	}
}

// save captures st and writes it, as Deployment.Save does.
func save(t testing.TB, st *State) []byte {
	t.Helper()
	img := Capture(st)
	defer img.Close()
	var buf bytes.Buffer
	if err := Save(&buf, img); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

func load(t testing.TB, b []byte) *State {
	t.Helper()
	st, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return st
}

// image is a saved stream taken apart, for the tests that alter one part
// of it and write it back behind a fresh CRC trailer.
type image struct {
	hdr    header
	terms  []termsDTO
	graphs [][]uint32 // the hot graph's IDs, then each site's graph's and the cold graph's
}

func decodeImage(t testing.TB, b []byte) *image {
	t.Helper()
	dec := gob.NewDecoder(bytes.NewReader(b))
	var v stamp
	var im image
	if err := dec.Decode(&v); err != nil || v.Version != Version {
		t.Fatalf("decode stamp: version %d, %v", v.Version, err)
	}
	if err := dec.Decode(&im.hdr); err != nil {
		t.Fatalf("decode header: %v", err)
	}
	for n := 0; n < im.hdr.Terms; {
		var c termsDTO
		if err := dec.Decode(&c); err != nil {
			t.Fatalf("decode terms: %v", err)
		}
		n += len(c.Kinds)
		im.terms = append(im.terms, c)
	}
	for _, n := range im.hdr.Graphs {
		var ids []uint32
		for len(ids) < 3*n {
			var c []uint32
			if err := dec.Decode(&c); err != nil {
				t.Fatalf("decode triples: %v", err)
			}
			ids = append(ids, c...)
		}
		im.graphs = append(im.graphs, ids)
	}
	return &im
}

func (im *image) encode(t *testing.T) []byte {
	t.Helper()
	return im.encodeAs(t, stamp{Version}, &im.hdr)
}

// encodeAs is encode with the stamp and the header given.
func (im *image) encodeAs(t testing.TB, v stamp, hdr any) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := &crcWriter{w: &buf}
	enc := gob.NewEncoder(cw)
	values := []any{v, hdr}
	for i := range im.terms {
		values = append(values, &im.terms[i])
	}
	for _, ids := range im.graphs {
		for lo := 0; lo < len(ids); lo += 3 * tripleChunk {
			values = append(values, ids[lo:min(lo+3*tripleChunk, len(ids))])
		}
	}
	for _, v := range values {
		if err := enc.Encode(v); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	buf.Write(binary.LittleEndian.AppendUint32(nil, cw.sum))
	return buf.Bytes()
}

func TestRoundTripStructure(t *testing.T) {
	for _, horizontal := range []bool{false, true} {
		st := buildState(t, horizontal)
		got := load(t, save(t, st))
		if got.HC.NumTriples() != st.HC.NumTriples() {
			t.Errorf("graph triples %d vs %d", got.HC.NumTriples(), st.HC.NumTriples())
		}
		if !slices.Equal(got.HC.Hot.Triples(), st.HC.Hot.Triples()) || !slices.Equal(got.HC.Cold.Triples(), st.HC.Cold.Triples()) {
			t.Errorf("hot/cold triples %d/%d vs %d/%d", got.HC.Hot.NumTriples(), got.HC.Cold.NumTriples(), st.HC.Hot.NumTriples(), st.HC.Cold.NumTriples())
		}
		if len(got.Frag.Fragments) != len(st.Frag.Fragments) {
			t.Fatalf("fragments %d vs %d", len(got.Frag.Fragments), len(st.Frag.Fragments))
		}
		if got.Frag.Kind != st.Frag.Kind {
			t.Errorf("kind %v vs %v", got.Frag.Kind, st.Frag.Kind)
		}
		for s, g := range st.Alloc.Graphs {
			if !slices.Equal(got.Alloc.Graphs[s].Triples(), g.Triples()) {
				t.Errorf("horizontal=%v: site %d's graph drifted: %d triples, saved %d", horizontal, s, got.Alloc.Graphs[s].NumTriples(), g.NumTriples())
			}
		}
		for i, f := range st.Frag.Fragments {
			g := got.Frag.Fragments[i]
			if g.ID != f.ID || g.Size != f.Size || g.Graph != got.Alloc.Graphs[got.Alloc.SiteOf[g.ID]] {
				t.Errorf("fragment %d drifted, or is not stored in its site's graph", f.ID)
			}
			if (g.Minterm == nil) != (f.Minterm == nil) {
				t.Errorf("fragment %d minterm presence drifted", f.ID)
			}
			if f.Pattern != nil && g.Pattern.Code != f.Pattern.Code {
				t.Errorf("fragment %d pattern code drifted", f.ID)
			}
			if got.Alloc.SiteOf[g.ID] != st.Alloc.SiteOf[f.ID] {
				t.Errorf("fragment %d site drifted", f.ID)
			}
		}
		// Term dictionary must round trip ID-for-ID.
		for i := 0; i < st.HC.Hot.Dict.Len(); i++ {
			if got.HC.Hot.Dict.Decode(rdf.ID(i)) != st.HC.Hot.Dict.Decode(rdf.ID(i)) {
				t.Fatalf("term %d drifted", i)
			}
		}
	}
}

// TestSaveLoadSaveByteStable: a loaded state is the saved state — a graph
// lists its triples in (S, P, O) order whatever order it was built from,
// so saving a loaded state again writes the same bytes. That holds for an
// image whose triples arrive in any other order too: it loads, and saves
// as the same state.
func TestSaveLoadSaveByteStable(t *testing.T) {
	for _, horizontal := range []bool{false, true} {
		first := save(t, buildState(t, horizontal))
		im := decodeImage(t, first)
		r := rand.New(rand.NewSource(1))
		for _, ids := range im.graphs {
			r.Shuffle(len(ids)/3, func(i, j int) {
				a, b := ids[3*i:3*i+3], ids[3*j:3*j+3]
				for k := range 3 {
					a[k], b[k] = b[k], a[k]
				}
			})
		}
		shuffled := im.encode(t)
		if bytes.Equal(first, shuffled) {
			t.Fatal("setup: shuffling the triples left the image as it was")
		}
		for name, saved := range map[string][]byte{"as saved": first, "triples shuffled": shuffled} {
			loaded := load(t, saved)
			for _, g := range []*rdf.Graph{loaded.HC.Hot, loaded.HC.Cold, loaded.Frag.Fragments[0].Graph} {
				if g.DeltaLen() != 0 {
					t.Errorf("horizontal=%v, %s: a loaded graph carries a delta", horizontal, name)
				}
			}
			if second := save(t, loaded); !bytes.Equal(first, second) {
				t.Errorf("horizontal=%v, %s: save → load → save changed the image (%d vs %d bytes)", horizontal, name, len(first), len(second))
			}
		}
	}
}

// TestSaveWhileTermsAreInterned: queries intern their constants into the
// shared dictionary while a checkpoint runs, with no lock at all once the
// snapshots are pinned, so the dictionary grows during Save; the image
// takes the terms there were at the capture instead of running past them.
func TestSaveWhileTermsAreInterned(t *testing.T) {
	st := buildState(t, false)
	d := st.HC.Hot.Dict
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 20000 {
			d.Encode(rdf.NewIRI(fmt.Sprintf("urn:query:constant:%d", i)))
		}
	}()
	for saves := 0; ; saves++ {
		select {
		case <-done:
			if saves == 0 {
				t.Fatal("the terms were all interned before the first Save began")
			}
			return
		default:
		}
		load(t, save(t, st))
	}
}

// TestRoundTripDeltaCarryingGraphs: a deployment that has taken live
// updates into its delta overlays saves completely, and Save changes
// nothing: the deltas and the compaction counts stay as they were
// (compacting is the durable checkpointer's, under the writer lock).
// Load reproduces every delta triple, and no tombstoned one.
func TestRoundTripDeltaCarryingGraphs(t *testing.T) {
	st := buildState(t, false)
	st.HC.Hot.SetAutoCompact(-1)
	frag0 := st.Frag.Fragments[0]
	cold := st.Frag.Cold

	// Stream post-freeze updates: one into the hot graph + a hot
	// fragment, one into the cold graph — the cold fragment's — and a
	// delete of a frozen hot triple.
	d := st.HC.Hot.Dict
	hot := rdf.Triple{S: d.Encode(rdf.NewIRI("UpdP")), P: d.Encode(rdf.NewIRI("name")), O: d.Encode(rdf.NewLiteral("Upd"))}
	coldT := rdf.Triple{S: d.Encode(rdf.NewIRI("UpdP")), P: d.Encode(rdf.NewIRI("viaf")), O: d.Encode(rdf.NewLiteral("42"))}
	gone := st.HC.Hot.Triples()[0]
	st.HC.Hot.Add(hot)
	st.HC.Hot.Delete(gone)
	frag0.Graph.Add(hot)
	cold.Graph.Add(coldT)
	graphs := []*rdf.Graph{st.HC.Hot, frag0.Graph, cold.Graph}
	type counters struct {
		delta       int
		compactions uint64
	}
	before := make([]counters, len(graphs))
	for i, g := range graphs {
		before[i] = counters{g.DeltaLen(), g.Compactions()}
		if before[i].delta == 0 {
			t.Fatalf("setup: graph %d carries no delta", i)
		}
	}

	got := load(t, save(t, st))
	for i, g := range graphs {
		if now := (counters{g.DeltaLen(), g.Compactions()}); now != before[i] {
			t.Errorf("graph %d: Save moved (delta, compactions) from %v to %v", i, before[i], now)
		}
	}
	if got.HC.NumTriples() != st.HC.NumTriples() {
		t.Fatalf("graph triples %d vs %d", got.HC.NumTriples(), st.HC.NumTriples())
	}
	gd := got.HC.Hot.Dict
	reHot := rdf.Triple{S: mustLookup(t, gd, "UpdP"), P: mustLookup(t, gd, "name"), O: gd.Encode(rdf.NewLiteral("Upd"))}
	reCold := rdf.Triple{S: reHot.S, P: mustLookup(t, gd, "viaf"), O: gd.Encode(rdf.NewLiteral("42"))}
	if !got.HC.Hot.Has(reHot) || !got.HC.Cold.Has(reCold) {
		t.Error("delta triple lost across the round trip")
	}
	if !got.Frag.Fragments[0].Graph.Has(reHot) {
		t.Error("fragment delta triple lost across the round trip")
	}
	if got.HC.Hot.Has(gone) {
		t.Error("a tombstoned triple came back across the round trip")
	}
}

// TestLoadKeepsOneColdGraph: a deployment's cold graph is its cold
// fragment's graph, and a hot triple that completed no pattern match sits
// in it beside the hot graph. The image lists the hot and the cold graph,
// each with the triple, and Load links the cold graph and the cold
// fragment as fragmentation does — one graph, not a copy of the cold
// triples each — so the loaded state saves to the same bytes.
func TestLoadKeepsOneColdGraph(t *testing.T) {
	for _, horizontal := range []bool{false, true} {
		st := buildState(t, horizontal)
		if st.HC.Cold != st.Frag.Cold.Graph {
			t.Fatal("setup: fragmentation built the cold fragment over a graph of its own")
		}
		d := st.HC.Hot.Dict
		parked := rdf.Triple{S: d.Encode(rdf.NewIRI("Parked")), P: d.Encode(rdf.NewIRI("name")), O: d.Encode(rdf.NewLiteral("Parked"))}
		if !st.HC.FreqProps[parked.P] {
			t.Fatal("setup: <name> is not a frequent property")
		}
		st.HC.Hot.Add(parked)
		st.HC.Cold.Add(parked)
		saved := save(t, st)
		if g := decodeImage(t, saved).hdr.Graphs; g[0] != st.HC.Hot.NumTriples() || g[len(g)-1] != st.HC.Cold.NumTriples() {
			t.Errorf("horizontal=%v: the image counts %v triples, the hot and cold graphs hold %d and %d", horizontal, g, st.HC.Hot.NumTriples(), st.HC.Cold.NumTriples())
		}
		got := load(t, saved)
		if got.HC.Cold != got.Frag.Cold.Graph {
			t.Errorf("horizontal=%v: the loaded cold graph is not the cold fragment's", horizontal)
		}
		if !got.HC.Hot.Has(parked) || !got.HC.Cold.Has(parked) || got.HC.NumTriples() != st.HC.NumTriples() {
			t.Errorf("horizontal=%v: the parked triple did not load where it was", horizontal)
		}
		if !bytes.Equal(save(t, got), saved) {
			t.Errorf("horizontal=%v: the loaded state saves to other bytes", horizontal)
		}

		// An image with no cold fragment still lists the cold graph.
		im := decodeImage(t, saved)
		im.hdr.Fragments = im.hdr.Fragments[:len(im.hdr.Fragments)-1]
		got = load(t, im.encode(t))
		if got.Frag.Cold != nil || !slices.Equal(got.HC.Cold.Triples(), st.HC.Cold.Triples()) {
			t.Errorf("horizontal=%v: with no cold fragment, the cold graph loaded %d triples, want %d", horizontal, got.HC.Cold.NumTriples(), st.HC.Cold.NumTriples())
		}
	}
}

// TestSaveWritesTheCapturedCut: Save writes the graphs as Capture pinned
// them, whatever the writer does between the two — the checkpointer
// captures under the writer lock and writes after releasing it.
func TestSaveWritesTheCapturedCut(t *testing.T) {
	st := buildState(t, false)
	want := save(t, st)
	img := Capture(st)
	defer img.Close()
	d := st.HC.Hot.Dict
	late := rdf.Triple{S: d.Encode(rdf.NewIRI("Late")), P: d.Encode(rdf.NewIRI("name")), O: d.Encode(rdf.NewLiteral("Late"))}
	st.HC.Hot.Add(late)
	st.Frag.Fragments[0].Graph.Add(late)
	st.Frag.Cold.Graph.Add(late)
	st.HC.Hot.Delete(st.HC.Hot.Triples()[0])
	st.Frag.Cold.Graph.Compact()
	st.HC.Hot.Compact()
	var buf bytes.Buffer
	if err := Save(&buf, img); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("the writes after Capture reached the image (%d vs %d bytes)", buf.Len(), len(want))
	}
}

func mustLookup(t *testing.T, d *rdf.Dict, iri string) rdf.ID {
	t.Helper()
	id, ok := d.Lookup(rdf.NewIRI(iri))
	if !ok {
		t.Fatalf("%s not in reloaded dictionary", iri)
	}
	return id
}

// TestLoadParentV5Header: a version 5 image whose header still carries
// the fields the version 4 reader needed — the header's Graph, each
// manifest entry's Triples — loads, and saves to this build's bytes.
// Gob matches fields by name and skips those the reader lacks, but the
// header's type descriptor differs, so this is what a checkpoint written
// before those fields went must pass to recover.
func TestLoadParentV5Header(t *testing.T) {
	type fragmentParent struct {
		ID          int
		Kind        uint8
		PatternIdx  int
		Constraints []ConstraintDTO
		Site        int
		Size        int
		Triples     int
	}
	type headerParent struct {
		Sites     int
		Kind      uint8
		WALSeq    uint64
		DictFP    uint64
		Terms     int
		FreqProps []uint32
		Patterns  []PatternDTO
		Graph     int
		Fragments []fragmentParent
		Graphs    []int
		Pending   []uint32
		Deadlines []int64
	}
	for _, horizontal := range []bool{false, true} {
		saved := save(t, buildState(t, horizontal))
		im := decodeImage(t, saved)
		h := im.hdr
		parent := headerParent{h.Sites, h.Kind, h.WALSeq, h.DictFP, h.Terms, h.FreqProps, h.Patterns, 0, nil, h.Graphs, h.Pending, h.Deadlines}
		for _, fd := range h.Fragments {
			parent.Fragments = append(parent.Fragments, fragmentParent{fd.ID, fd.Kind, fd.PatternIdx, fd.Constraints, fd.Site, fd.Size, 0})
		}
		old := im.encodeAs(t, stamp{Version}, &parent)
		if bytes.Equal(old, saved) {
			t.Fatalf("horizontal=%v: the header with the version 4 fields encodes to this build's bytes", horizontal)
		}
		if !bytes.Equal(save(t, load(t, old)), saved) {
			t.Errorf("horizontal=%v: an image with the version 4 header fields loads into a state that saves to other bytes", horizontal)
		}
	}
}

// TestVersionMismatch: an image of another format version is refused by
// name — a version 4 stream, which listed each fragment's triples, a
// version 3 stream, whose header carried no TTL schedule, a version 2
// checkpoint, one gob value of the whole deployment written before the
// stream, and a version from the future.
func TestVersionMismatch(t *testing.T) {
	im := decodeImage(t, save(t, buildState(t, false)))
	v4 := im.encodeAs(t, stamp{4}, &im.hdr)
	v3 := im.encodeAs(t, stamp{3}, &im.hdr)

	type termV2 struct {
		Kind  uint8
		Value string
	}
	type fragmentV2 struct {
		ID         int
		PatternIdx int
		Triples    [][3]uint32
		Site       int
	}
	type snapshotV2 struct {
		Version      int
		Sites        int
		DictFP       uint64
		Terms        []termV2
		GraphTriples [][3]uint32
		FreqProps    []uint32
		Fragments    []fragmentV2
	}
	var v2 bytes.Buffer
	if err := gob.NewEncoder(&v2).Encode(&snapshotV2{
		Version:      2,
		Sites:        1,
		Terms:        []termV2{{Value: "s"}, {Value: "p"}, {Value: "o"}},
		GraphTriples: [][3]uint32{{0, 1, 2}},
		FreqProps:    []uint32{1},
		Fragments:    []fragmentV2{{PatternIdx: -1, Triples: [][3]uint32{{0, 1, 2}}}},
	}); err != nil {
		t.Fatal(err)
	}
	var v99 bytes.Buffer
	if err := gob.NewEncoder(&v99).Encode(stamp{99}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		image []byte
		names []string
	}{
		{v4, []string{"v4", "reads v5 only"}},
		{v3, []string{"v3", "reads v5 only"}},
		{v2.Bytes(), []string{"v2", "reads v5 only"}},
		{v99.Bytes(), []string{"v99", "reads v5 only"}},
	} {
		_, err := Load(bytes.NewReader(c.image))
		if err == nil {
			t.Fatalf("an image that is not v%d loaded", Version)
		}
		for _, name := range c.names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("the refusal %q does not name %s", err, name)
			}
		}
	}
}

func TestInvalidSiteRejected(t *testing.T) {
	im := decodeImage(t, save(t, buildState(t, false)))
	im.hdr.Fragments[0].Site = 99
	if _, err := Load(bytes.NewReader(im.encode(t))); err == nil {
		t.Error("invalid site accepted")
	}
}

// TestLoadRefusesWhatTheImageDoesNotHold: an index, a count or an ID that
// reaches past what the image holds is refused by Load, before anything
// indexes with it — and so is content whose CRC trailer does not match.
func TestLoadRefusesWhatTheImageDoesNotHold(t *testing.T) {
	saved := save(t, buildState(t, true))
	minterm := -1
	for i, fd := range decodeImage(t, saved).hdr.Fragments {
		if len(fd.Constraints) > 0 {
			minterm = i
			break
		}
	}
	if minterm < 0 {
		t.Fatal("setup: no fragment carries a minterm")
	}
	for _, c := range []struct {
		name   string
		alter  func(im *image)
		refuse string
	}{
		{"pattern index past the patterns", func(im *image) { im.hdr.Fragments[0].PatternIdx = len(im.hdr.Patterns) }, "pattern"},
		{"constraint on a vertex the pattern lacks", func(im *image) { im.hdr.Fragments[minterm].Constraints[0].Vertex = 99 }, "vertex"},
		{"constraint value past the terms", func(im *image) { im.hdr.Fragments[minterm].Constraints[0].Value = uint32(im.hdr.Terms) }, "term count"},
		{"triple ID past the terms", func(im *image) { im.graphs[0][0] = uint32(im.hdr.Terms) }, "term count"},
		{"site triple ID past the terms", func(im *image) { im.graphs[1+im.hdr.Fragments[0].Site][2] = uint32(im.hdr.Terms) }, "term count"},
		{"frequent property past the terms", func(im *image) { im.hdr.FreqProps[0] = uint32(im.hdr.Terms) }, "term count"},
		{"pattern edge past its vertices", func(im *image) { im.hdr.Patterns[0].Edges[0].To = len(im.hdr.Patterns[0].Verts) }, "vertices"},
		{"pattern constant past the terms", func(im *image) {
			im.hdr.Patterns[0].Edges[0].PredVar, im.hdr.Patterns[0].Edges[0].Pred = "", uint32(im.hdr.Terms)
		}, "term count"},
		{"no sites", func(im *image) { im.hdr.Sites = 0 }, "sites"},
		{"a billion sites", func(im *image) { im.hdr.Sites = 1 << 30 }, "sites"},
		{"fragment ID twice", func(im *image) { im.hdr.Fragments[1].ID = im.hdr.Fragments[0].ID }, "twice"},
		{"negative triple count", func(im *image) { im.hdr.Graphs[1] = -1; im.graphs[1] = nil }, "triples"},
		{"a site's graph missing", func(im *image) {
			im.hdr.Graphs, im.graphs = slices.Delete(im.hdr.Graphs, 1, 2), slices.Delete(im.graphs, 1, 2)
		}, "graphs for"},
		{"negative size", func(im *image) { im.hdr.Fragments[0].Size = -1 }, "size"},
		{"hot fragment on no site", func(im *image) { im.hdr.Fragments[0].Site = -1 }, "invalid site"},
		{"cold fragment past the sites", func(im *image) { im.hdr.Fragments[len(im.hdr.Fragments)-1].Site = im.hdr.Sites }, "invalid site"},
		{"cold fragment not last", func(im *image) {
			fs := im.hdr.Fragments
			fs[len(fs)-1], fs[len(fs)-2] = fs[len(fs)-2], fs[len(fs)-1]
		}, "not the last"},
		{"term of no kind", func(im *image) { im.terms[0].Kinds[0] = 9 }, "kind"},
		{"term repeated", func(im *image) {
			im.terms[0].Values[1], im.terms[0].Kinds[1] = im.terms[0].Values[0], im.terms[0].Kinds[0]
		}, "diverged"},
		{"more triples than counted", func(im *image) { im.hdr.Graphs[0]-- }, "chunk"},
		{"fewer triples than counted", func(im *image) { im.hdr.Graphs[0] += tripleChunk }, "decode triples"},
	} {
		im := decodeImage(t, saved)
		c.alter(im)
		_, err := Load(bytes.NewReader(im.encode(t)))
		if err == nil || !strings.Contains(err.Error(), c.refuse) {
			t.Errorf("%s: Load returned %v, want a refusal naming %q", c.name, err, c.refuse)
		}
	}

	// Content altered behind the saved trailer, the trailer itself, and
	// bytes missing from or added to the end.
	im := decodeImage(t, saved)
	im.graphs[0][2] = im.graphs[0][5]
	altered := im.encode(t)
	copy(altered[len(altered)-4:], saved[len(saved)-4:])
	flipped := slices.Clone(saved)
	flipped[len(flipped)-1] ^= 1
	for _, c := range []struct {
		name, refuse string
		image        []byte
	}{
		{"content altered", "CRC mismatch", altered},
		{"trailer altered", "CRC mismatch", flipped},
		{"trailer cut", "CRC trailer", saved[:len(saved)-2]},
		{"byte appended", "after the checkpoint's CRC trailer", append(slices.Clone(saved), 0)},
		{"image cut in two", "decode", saved[:len(saved)/2]},
	} {
		if _, err := Load(bytes.NewReader(c.image)); err == nil || !strings.Contains(err.Error(), c.refuse) {
			t.Errorf("%s: Load returned %v, want a refusal naming %q", c.name, err, c.refuse)
		}
	}
}

func TestLoadedMintermStillFilters(t *testing.T) {
	got := load(t, save(t, buildState(t, true)))
	var withMinterm *fragment.Fragment
	for _, f := range got.Frag.Fragments {
		if f.Minterm != nil {
			withMinterm = f
			break
		}
	}
	if withMinterm == nil {
		t.Skip("no minterm fragments in this configuration")
	}
	filter := withMinterm.Minterm.VertexFilter()
	c := withMinterm.Minterm.Constraints[0]
	if c.Equal {
		if !filter(c.Vertex, c.Value) {
			t.Error("equality constraint rejects its own value after reload")
		}
	} else {
		if filter(c.Vertex, c.Value) {
			t.Error("negation constraint accepts its excluded value after reload")
		}
	}
}

// TestDictFingerprintGuardsTampering: an image whose terms were altered
// after Save (bit rot, wrong file, a different deployment's terms spliced
// in) must be refused at Load even behind a matching CRC — silently
// decoding triples against the wrong dictionary would scramble every
// term.
func TestDictFingerprintGuardsTampering(t *testing.T) {
	im := decodeImage(t, save(t, buildState(t, false)))
	if im.hdr.DictFP == 0 {
		t.Fatal("Save left DictFP unstamped")
	}
	chunk := &im.terms[len(im.terms)/2]
	chunk.Values[len(chunk.Values)/2] += "-tampered"
	_, err := Load(bytes.NewReader(im.encode(t)))
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("Load of an image with a tampered term chunk returned %v, want the fingerprint refusal", err)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		w.n = 0
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestSaveReportsWriteErrors: a write that fails anywhere in the stream —
// a checkpoint's disk filling up — fails Save, whose image is then never
// renamed into place.
func TestSaveReportsWriteErrors(t *testing.T) {
	st := stateOf(t, testenv.Options{Persons: 3000})
	size := len(save(t, st))
	if size < 4<<16 {
		t.Fatalf("setup: a %d-byte image fits the write buffer", size)
	}
	img := Capture(st)
	defer img.Close()
	fails := []int{0, size / 2, size - 1}
	for n := 1 << 16; n < size; n += 1 << 16 { // each buffer's worth: terms, the global graph, the sites
		fails = append(fails, n)
	}
	for _, n := range fails {
		if err := Save(&failAfter{n: n}, img); err == nil {
			t.Errorf("Save reported no error from a writer failing after %d of %d bytes", n, size)
		}
	}
}

// TestWALSeqRoundTrips: the checkpoint's WAL sequence stamp survives the
// round trip — recovery replays only records past it.
func TestWALSeqRoundTrips(t *testing.T) {
	st := buildState(t, false)
	st.WALSeq = 12345
	if got := load(t, save(t, st)); got.WALSeq != 12345 {
		t.Fatalf("WALSeq = %d, want 12345", got.WALSeq)
	}
}

// TestExpiryRoundTrips: the TTL schedule survives the round trip to the
// microsecond, as far out as the longest Go duration reaches, in (S, P, O)
// order, so equal schedules save to equal bytes; an image of an empty
// schedule loads with none.
func TestExpiryRoundTrips(t *testing.T) {
	st := buildState(t, false)
	if got := load(t, save(t, st)); got.Expiry != nil {
		t.Fatalf("an image with nothing pending loaded the schedule %v", got.Expiry)
	}
	ts := st.HC.Hot.Triples()
	far := time.Now().Add(time.Duration(math.MaxInt64)).Truncate(time.Microsecond)
	st.Expiry = map[rdf.Triple]time.Time{
		ts[len(ts)-1]: far,
		ts[0]:         time.UnixMicro(1_700_000_000_123_456),
		ts[len(ts)/2]: time.UnixMicro(1_700_000_000_000_000),
	}
	saved := save(t, st)
	got := load(t, saved)
	if len(got.Expiry) != len(st.Expiry) {
		t.Fatalf("loaded %d deadlines, want %d", len(got.Expiry), len(st.Expiry))
	}
	for tr, at := range st.Expiry {
		if !got.Expiry[tr].Equal(at) {
			t.Errorf("triple %v: deadline %v, want %v", tr, got.Expiry[tr], at)
		}
	}
	if !got.Expiry[ts[len(ts)-1]].After(time.Now().AddDate(290, 0, 0)) {
		t.Error("the longest TTL's deadline did not stay centuries out")
	}
	if !bytes.Equal(save(t, got), saved) {
		t.Error("the reloaded schedule saves to other bytes")
	}
	im := decodeImage(t, saved)
	im.hdr.Deadlines = im.hdr.Deadlines[1:]
	if _, err := Load(bytes.NewReader(im.encode(t))); err == nil || !strings.Contains(err.Error(), "deadlines") {
		t.Errorf("an image with more pending IDs than deadlines: Load returned %v", err)
	}
	im = decodeImage(t, saved)
	im.hdr.Pending[1] = uint32(im.hdr.Terms)
	if _, err := Load(bytes.NewReader(im.encode(t))); err == nil || !strings.Contains(err.Error(), "term count") {
		t.Errorf("a pending triple ID past the terms: Load returned %v", err)
	}
}

// FuzzLoad: whatever the bytes, Load does not panic, does not allocate
// from a count the bytes do not back, and accepts no image whose CRC
// trailer fails; what it accepts saves and loads again. The seeds are
// images of six-person deployments, one with a TTL schedule pending: a
// fuzzer minimizes what it finds byte by byte, so small seeds keep it
// fuzzing.
func FuzzLoad(f *testing.F) {
	for _, horizontal := range []bool{false, true} {
		env := buildEnv(f, testenv.Options{Persons: 6, Horizontal: horizontal})
		st := stateOfEnv(env)
		f.Add(save(f, st))
		if horizontal {
			st.Expiry = map[rdf.Triple]time.Time{st.HC.Hot.Triples()[0]: time.UnixMicro(1_700_000_000_000_000)}
			f.Add(save(f, st))
		}
	}
	f.Add([]byte("not a checkpoint"))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := Load(bytes.NewReader(b))
		if err != nil {
			return
		}
		if n := len(b) - 4; crc32.Checksum(b[:n], castagnoli) != binary.LittleEndian.Uint32(b[n:]) {
			t.Fatal("Load accepted an image whose CRC trailer fails")
		}
		load(t, save(t, st))
	})
}
