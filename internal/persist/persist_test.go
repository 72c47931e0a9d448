package persist

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"rdffrag/internal/allocation"
	"rdffrag/internal/fragment"
	"rdffrag/internal/rdf"
	"rdffrag/internal/testenv"
)

func buildState(t *testing.T, horizontal bool) *State {
	t.Helper()
	env, err := testenv.Build(testenv.Options{Horizontal: horizontal})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return &State{
		Graph: env.G,
		HC:    env.HC,
		Frag:  env.Frag,
		Alloc: env.Alloc,
		Sites: len(env.Alloc.Sites),
	}
}

func TestRoundTripStructure(t *testing.T) {
	for _, horizontal := range []bool{false, true} {
		st := buildState(t, horizontal)
		var buf bytes.Buffer
		if err := Save(&buf, st); err != nil {
			t.Fatalf("Save: %v", err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if got.Graph.NumTriples() != st.Graph.NumTriples() {
			t.Errorf("graph triples %d vs %d", got.Graph.NumTriples(), st.Graph.NumTriples())
		}
		if got.HC.Hot.NumTriples() != st.HC.Hot.NumTriples() {
			t.Errorf("hot triples %d vs %d", got.HC.Hot.NumTriples(), st.HC.Hot.NumTriples())
		}
		if len(got.Frag.Fragments) != len(st.Frag.Fragments) {
			t.Fatalf("fragments %d vs %d", len(got.Frag.Fragments), len(st.Frag.Fragments))
		}
		if got.Frag.Kind != st.Frag.Kind {
			t.Errorf("kind %v vs %v", got.Frag.Kind, st.Frag.Kind)
		}
		for i, f := range st.Frag.Fragments {
			g := got.Frag.Fragments[i]
			if g.ID != f.ID || g.Graph.NumTriples() != f.Graph.NumTriples() {
				t.Errorf("fragment %d drifted", f.ID)
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
		for i := 0; i < st.Graph.Dict.Len(); i++ {
			if got.Graph.Dict.Decode(rdf.ID(i)) != st.Graph.Dict.Decode(rdf.ID(i)) {
				t.Fatalf("term %d drifted", i)
			}
		}
	}
}

// TestSaveLoadSaveByteStable: a loaded state is the saved state — a graph
// lists its triples in (S, P, O) order whatever order it was built from,
// so saving a loaded state again writes the same bytes. That holds for a
// checkpoint whose lists are in any other order too, as those written
// before the graph stopped keeping an insertion order are: it loads, and
// saves as the same state.
func TestSaveLoadSaveByteStable(t *testing.T) {
	for _, horizontal := range []bool{false, true} {
		var first bytes.Buffer
		if err := Save(&first, buildState(t, horizontal)); err != nil {
			t.Fatalf("Save: %v", err)
		}
		var snap Snapshot
		if err := gob.NewDecoder(bytes.NewReader(first.Bytes())).Decode(&snap); err != nil {
			t.Fatalf("decode: %v", err)
		}
		r := rand.New(rand.NewSource(1))
		lists := [][][3]uint32{snap.GraphTriples, snap.Cold.Triples}
		for _, f := range snap.Fragments {
			lists = append(lists, f.Triples)
		}
		for _, ts := range lists {
			r.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		}
		var shuffled bytes.Buffer
		if err := gob.NewEncoder(&shuffled).Encode(&snap); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if bytes.Equal(first.Bytes(), shuffled.Bytes()) {
			t.Fatal("setup: shuffling the triple lists left the checkpoint as it was")
		}
		for name, saved := range map[string][]byte{"as saved": first.Bytes(), "lists shuffled": shuffled.Bytes()} {
			loaded, err := Load(bytes.NewReader(saved))
			if err != nil {
				t.Fatalf("%s: Load: %v", name, err)
			}
			for _, g := range []*rdf.Graph{loaded.Graph, loaded.HC.Hot, loaded.HC.Cold, loaded.Frag.Cold.Graph, loaded.Frag.Fragments[0].Graph} {
				if g.DeltaLen() != 0 {
					t.Errorf("horizontal=%v, %s: a loaded graph carries a delta", horizontal, name)
				}
			}
			var second bytes.Buffer
			if err := Save(&second, loaded); err != nil {
				t.Fatalf("%s: second Save: %v", name, err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Errorf("horizontal=%v, %s: save → load → save changed the snapshot (%d vs %d bytes)", horizontal, name, first.Len(), second.Len())
			}
		}
	}
}

// TestRoundTripDeltaCarryingGraphs: a deployment that has taken live
// updates into its delta overlays snapshots completely — Save compacts
// the deltas first (the frozen survivors keep serving pure-CSR reads)
// and Load reproduces every delta triple.
func TestRoundTripDeltaCarryingGraphs(t *testing.T) {
	st := buildState(t, false)
	st.Graph.Freeze()
	st.Graph.SetAutoCompact(-1)
	frag0 := st.Frag.Fragments[0]
	cold := st.Frag.Cold

	// Stream post-freeze updates: one into the global graph + a hot
	// fragment, one into the global graph + the cold fragment.
	d := st.Graph.Dict
	hot := rdf.Triple{S: d.MustIRI("UpdP"), P: d.MustIRI("name"), O: d.MustLiteral("Upd")}
	coldT := rdf.Triple{S: d.MustIRI("UpdP"), P: d.MustIRI("viaf"), O: d.MustLiteral("42")}
	st.Graph.Add(hot)
	st.Graph.Add(coldT)
	frag0.Graph.Add(hot)
	cold.Graph.Add(coldT)
	if st.Graph.DeltaLen() != 2 || frag0.Graph.DeltaLen() == 0 || cold.Graph.DeltaLen() == 0 {
		t.Fatalf("setup: deltas global=%d frag=%d cold=%d",
			st.Graph.DeltaLen(), frag0.Graph.DeltaLen(), cold.Graph.DeltaLen())
	}

	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Compact-on-save: the saved deployment's graphs carry no deltas now.
	if st.Graph.DeltaLen() != 0 || frag0.Graph.DeltaLen() != 0 || cold.Graph.DeltaLen() != 0 {
		t.Errorf("Save left deltas behind: global=%d frag=%d cold=%d",
			st.Graph.DeltaLen(), frag0.Graph.DeltaLen(), cold.Graph.DeltaLen())
	}

	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Graph.NumTriples() != st.Graph.NumTriples() {
		t.Fatalf("graph triples %d vs %d", got.Graph.NumTriples(), st.Graph.NumTriples())
	}
	gd := got.Graph.Dict
	reHot := rdf.Triple{S: mustLookup(t, gd, "UpdP"), P: mustLookup(t, gd, "name"), O: gd.MustLiteral("Upd")}
	if !got.Graph.Has(reHot) {
		t.Error("delta triple lost across the round trip")
	}
	if !got.Frag.Fragments[0].Graph.Has(reHot) {
		t.Error("fragment delta triple lost across the round trip")
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

func TestVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Snapshot{Version: 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("future version accepted")
	}
}

func TestInvalidSiteRejected(t *testing.T) {
	st := buildState(t, false)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	snap.Fragments[0].Site = 99
	var buf2 bytes.Buffer
	if err := gob.NewEncoder(&buf2).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf2); err == nil {
		t.Error("invalid site accepted")
	}
}

func TestLoadedMintermStillFilters(t *testing.T) {
	st := buildState(t, true)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
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
	_ = allocation.Allocation{}
}

// TestDictFingerprintGuardsTampering: a snapshot whose Terms list was
// altered after Save (bit rot, wrong file, a different deployment's
// snapshot spliced in) must be refused at Load — silently decoding
// triples against the wrong dictionary would scramble every term.
func TestDictFingerprintGuardsTampering(t *testing.T) {
	st := buildState(t, false)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatalf("Save: %v", err)
	}

	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap.DictFP == 0 {
		t.Fatal("Save left DictFP unstamped")
	}
	snap.Terms[len(snap.Terms)/2].Value += "-tampered"
	var evil bytes.Buffer
	if err := gob.NewEncoder(&evil).Encode(&snap); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if _, err := Load(&evil); err == nil {
		t.Fatal("Load accepted a snapshot with a tampered dictionary")
	}
}

// TestWALSeqRoundTrips: the checkpoint's WAL sequence stamp survives the
// round trip — recovery replays only records past it.
func TestWALSeqRoundTrips(t *testing.T) {
	st := buildState(t, false)
	st.WALSeq = 12345
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.WALSeq != 12345 {
		t.Fatalf("WALSeq = %d, want 12345", got.WALSeq)
	}
}
