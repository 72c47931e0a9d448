package rdffrag

import (
	"io"

	"rdffrag/internal/cluster"
	"rdffrag/internal/dict"
	"rdffrag/internal/exec"
	"rdffrag/internal/fragment"
	"rdffrag/internal/persist"
	"rdffrag/internal/rdf"
)

// Save serializes the deployment — term dictionary, hot/cold split (as
// the global graph it divides), fragments with their generating patterns
// and minterms, and the allocation — so it can be reloaded with
// LoadDeployment without re-running the offline pipeline. It changes
// nothing: it pins a snapshot of each graph and streams them. It does not
// order itself with updates, so while a Server is running use
// Server.Save, which pins under the server's writer lock.
func (dep *Deployment) Save(w io.Writer) error {
	img := dep.capture(0)
	defer img.Close()
	return persist.Save(w, img)
}

// capture pins the deployment for persist.Save, TTL schedule included,
// stamped with the WAL sequence number of the last batch it holds — so
// recovery replays only the log past it. The caller orders it with the
// writer.
func (dep *Deployment) capture(walSeq uint64) *persist.Image {
	return persist.Capture(&persist.State{
		HC:     dep.hc,
		Frag:   dep.frag,
		Alloc:  dep.alloc,
		Sites:  dep.cfg.Sites,
		WALSeq: walSeq,
		Expiry: dep.expiry,
	})
}

// LoadDeployment reconstructs a query-ready deployment from a snapshot
// written by Save. Only runtime knobs of cfg apply (WorkersPerSite);
// structural settings (Sites, Strategy) come from the snapshot.
func LoadDeployment(r io.Reader, cfg Config) (*Deployment, error) {
	cfg = cfg.withDefaults()
	st, err := persist.Load(r)
	if err != nil {
		return nil, err
	}
	db := &DB{cfg: cfg, graph: rdf.NewGraph(st.HC.Hot.Dict)}
	db.cfg.Sites = st.Sites
	if st.Frag.Kind == fragment.HorizontalKind {
		db.cfg.Strategy = Horizontal
	} else {
		db.cfg.Strategy = Vertical
	}

	dd := dict.Build(st.Frag, st.Alloc, nil)
	cl := cluster.New(st.Sites, cfg.WorkersPerSite)
	engine, err := exec.New(cl, dd, st.Frag, st.Alloc, st.HC)
	if err != nil {
		return nil, err
	}
	return &Deployment{
		db:      db,
		cfg:     db.cfg,
		hc:      st.HC,
		frag:    st.Frag,
		alloc:   st.Alloc,
		dict:    dd,
		cluster: cl,
		engine:  engine,
		walSeq:  st.WALSeq,
		expiry:  st.Expiry,
	}, nil
}
