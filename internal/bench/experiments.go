package bench

import (
	"fmt"
	"sync"
	"time"

	"rdffrag/internal/mining"
	"rdffrag/internal/sparql"
)

// Fig8a sweeps minSup and reports the number of frequent access patterns
// (Figure 8(a): 0.1% → 163 FAPs, 1% → 44 for real DBpedia; shapes here,
// not absolute counts).
func (s *Suite) Fig8a() (*Table, error) {
	ds, err := s.dbpedia()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig8a",
		Title:  "minSup vs number of frequent access patterns (DBpedia-like)",
		Header: []string{"minSup", "FAPs"},
	}
	for _, frac := range []float64{0.001, 0.005, 0.01} {
		minSup := int(frac * float64(len(ds.Log)))
		if minSup < 1 {
			minSup = 1
		}
		ps := (&mining.Miner{MinSup: minSup}).Mine(ds.Log)
		t.addRow(fmt.Sprintf("%.1f%%", frac*100), fmt.Sprintf("%d", len(ps)))
	}
	t.Notes = "paper: 0.1%→163, 1%→44 FAPs; count must fall as minSup rises"
	return t, nil
}

// Fig8b reports workload coverage as a function of the number of FAPs
// kept (Figure 8(b)): patterns sorted by support, prefix coverage.
func (s *Suite) Fig8b() (*Table, error) {
	ds, err := s.dbpedia()
	if err != nil {
		return nil, err
	}
	minSup := minSupOf(len(ds.Log))
	ps := (&mining.Miner{MinSup: minSup}).Mine(ds.Log)
	t := &Table{
		ID:     "fig8b",
		Title:  "number of FAPs vs workload hitting ratio (DBpedia-like)",
		Header: []string{"FAPs", "coverage"},
	}
	steps := []int{1, 2, 4, 8, len(ps)}
	for _, n := range steps {
		if n > len(ps) {
			n = len(ps)
		}
		cov := mining.Coverage(ps[:n], ds.Log)
		t.addRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.1f%%", cov*100))
	}
	t.Notes = "paper: coverage rises with FAP count, ~97% at full set"
	return t, nil
}

// runSequential measures the average per-query latency.
func runSequential(r Runner, qs []*sparql.Graph) (avg time.Duration, err error) {
	if len(qs) == 0 {
		return 0, fmt.Errorf("bench: empty query sample")
	}
	t0 := time.Now()
	for _, q := range qs {
		if _, _, err := r.Query(q); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / time.Duration(len(qs)), nil
}

// runThroughput replays the sample with concurrent clients and reports
// queries per minute.
func runThroughput(r Runner, qs []*sparql.Graph, clients int) (float64, error) {
	if len(qs) == 0 {
		return 0, fmt.Errorf("bench: empty query sample")
	}
	// Replay the sample a few times so short runs aren't dominated by a
	// single slow query landing on one client.
	const reps = 3
	jobs := make(chan *sparql.Graph, reps*len(qs))
	for r := 0; r < reps; r++ {
		for _, q := range qs {
			jobs <- q
		}
	}
	close(jobs)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range jobs {
				if _, _, err := r.Query(q); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	mins := time.Since(t0).Minutes()
	if mins <= 0 {
		mins = 1e-9
	}
	return float64(reps*len(qs)) / mins, nil
}

// Fig9 compares throughput (queries per minute) across the four
// strategies on both datasets (Figure 9).
func (s *Suite) Fig9() (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "throughput, queries/minute (higher is better)",
		Header: []string{"dataset", "SHAPE", "WARP", "VF", "HF"},
		Notes:  "paper: VF > HF > WARP > SHAPE on both datasets",
	}
	for _, get := range []func() (*Dataset, error){s.dbpedia, s.watDiv} {
		ds, err := get()
		if err != nil {
			return nil, err
		}
		sample := sampleQueries(ds.Log, s.Cfg.SampleFraction)
		row := []string{ds.Name}
		for _, name := range StrategyNames {
			r, _, err := s.buildStrategy(ds, name)
			if err != nil {
				return nil, err
			}
			qpm, err := runThroughput(r, sample, s.Cfg.Clients)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f", qpm))
		}
		t.addRow(row...)
	}
	return t, nil
}

// Fig10 compares average query response time (Figure 10).
func (s *Suite) Fig10() (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "average response time per query (lower is better)",
		Header: []string{"dataset", "SHAPE", "WARP", "VF", "HF"},
		Notes:  "paper: HF < VF < WARP < SHAPE on both datasets",
	}
	for _, get := range []func() (*Dataset, error){s.dbpedia, s.watDiv} {
		ds, err := get()
		if err != nil {
			return nil, err
		}
		sample := sampleQueries(ds.Log, s.Cfg.SampleFraction)
		row := []string{ds.Name}
		for _, name := range StrategyNames {
			r, _, err := s.buildStrategy(ds, name)
			if err != nil {
				return nil, err
			}
			avg, err := runSequential(r, sample)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			row = append(row, ms(float64(avg.Microseconds())/1000))
		}
		t.addRow(row...)
	}
	return t, nil
}

// Fig11 sweeps the WatDiv dataset size for VF and HF (Figure 11):
// response time and throughput vs triples.
func (s *Suite) Fig11() (*Table, error) {
	base := s.Cfg.WatDivTriples
	sizes := []int{base / 2, base, base * 3 / 2, base * 2, base * 5 / 2}
	t := &Table{
		ID:     "fig11",
		Title:  "scalability on WatDiv-like data (≙ paper's 50M–250M sweep)",
		Header: []string{"triples", "VF avg", "HF avg", "VF qpm", "HF qpm"},
		Notes:  "paper: slow degradation with size; HF faster, VF higher throughput",
	}
	for _, size := range sizes {
		ds, err := s.watDivAt(size)
		if err != nil {
			return nil, err
		}
		sample := sampleQueries(ds.Log, s.Cfg.SampleFraction)
		row := []string{fmt.Sprintf("%d", ds.Graph.NumTriples())}
		var avgs []string
		var qpms []string
		for _, name := range []string{"VF", "HF"} {
			r, _, err := s.buildStrategy(ds, name)
			if err != nil {
				return nil, err
			}
			avg, err := runSequential(r, sample)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			avgs = append(avgs, ms(float64(avg.Microseconds())/1000))
			qpm, err := runThroughput(r, sample, s.Cfg.Clients)
			if err != nil {
				return nil, err
			}
			qpms = append(qpms, fmt.Sprintf("%.0f", qpm))
		}
		row = append(row, avgs...)
		row = append(row, qpms...)
		t.addRow(row...)
	}
	return t, nil
}

// Fig12 runs the 20 WatDiv benchmark queries per strategy (Figure 12).
func (s *Suite) Fig12() (*Table, error) {
	ds, err := s.watDiv()
	if err != nil {
		return nil, err
	}
	qs, names, err := ds.WatDiv.BenchmarkQueries(s.Cfg.Seed + 7)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig12",
		Title:  "WatDiv benchmark queries: per-query response time",
		Header: []string{"query", "SHAPE", "WARP", "VF", "HF"},
		Notes:  "paper: VF/HF win on most queries; stars close, complex queries far apart",
	}
	runners := make([]Runner, len(StrategyNames))
	for i, name := range StrategyNames {
		r, _, err := s.buildStrategy(ds, name)
		if err != nil {
			return nil, err
		}
		runners[i] = r
	}
	const reps = 3
	for qi, q := range qs {
		row := []string{names[qi]}
		for ri, r := range runners {
			t0 := time.Now()
			for rep := 0; rep < reps; rep++ {
				if _, _, err := r.Query(q); err != nil {
					return nil, fmt.Errorf("%s on %s: %w", StrategyNames[ri], names[qi], err)
				}
			}
			row = append(row, ms(float64(time.Since(t0).Microseconds())/1000/reps))
		}
		t.addRow(row...)
	}
	return t, nil
}

// Table1 reports redundancy ratios (Table 1).
func (s *Suite) Table1() (*Table, error) {
	t := &Table{
		ID:     "table1",
		Title:  "redundancy: edges stored / edges in original graph",
		Header: []string{"strategy", "DBpedia", "WatDiv"},
		Notes:  "paper: SHAPE 2.99/1.74, WARP 1.01/1.54, VF 1.38/1.04, HF 1.42/1.06",
	}
	dbp, err := s.dbpedia()
	if err != nil {
		return nil, err
	}
	wat, err := s.watDiv()
	if err != nil {
		return nil, err
	}
	for _, name := range StrategyNames {
		_, st1, err := s.buildStrategy(dbp, name)
		if err != nil {
			return nil, err
		}
		_, st2, err := s.buildStrategy(wat, name)
		if err != nil {
			return nil, err
		}
		t.addRow(name, f2(st1.Redundancy), f2(st2.Redundancy))
	}
	return t, nil
}

// Table2 reports partitioning and loading times (Table 2).
func (s *Suite) Table2() (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "offline partitioning and loading time",
		Header: []string{"strategy", "DBp part", "DBp load", "DBp total", "WD part", "WD load", "WD total"},
		Notes:  "paper reports minutes at 10⁴× scale; shapes (VF/HF loading dominates on DBpedia) carry over",
	}
	dbp, err := s.dbpedia()
	if err != nil {
		return nil, err
	}
	wat, err := s.watDiv()
	if err != nil {
		return nil, err
	}
	for _, name := range StrategyNames {
		_, st1, err := s.buildStrategy(dbp, name)
		if err != nil {
			return nil, err
		}
		_, st2, err := s.buildStrategy(wat, name)
		if err != nil {
			return nil, err
		}
		t.addRow(name,
			ms(float64(st1.Partitioning.Microseconds())/1000),
			ms(float64(st1.Loading.Microseconds())/1000),
			ms(float64((st1.Partitioning+st1.Loading).Microseconds())/1000),
			ms(float64(st2.Partitioning.Microseconds())/1000),
			ms(float64(st2.Loading.Microseconds())/1000),
			ms(float64((st2.Partitioning+st2.Loading).Microseconds())/1000),
		)
	}
	return t, nil
}
