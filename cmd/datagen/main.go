// Command datagen emits synthetic corpora in the formats cmd/rdffrag
// consumes: an N-Triples data file and a workload file (queries separated
// by '---' lines).
//
// Usage:
//
//	datagen -kind dbpedia -triples 10000 -queries 500 -out /tmp/corpus
//	datagen -kind watdiv  -triples 20000 -queries 300 -out /tmp/corpus
//
// produces <out>.nt and <out>.rq.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
	"rdffrag/internal/workload"
)

func main() {
	var (
		kind    = flag.String("kind", "dbpedia", "corpus kind: dbpedia or watdiv")
		triples = flag.Int("triples", 10000, "approximate dataset size")
		queries = flag.Int("queries", 500, "workload length")
		out     = flag.String("out", "corpus", "output path prefix")
		seed    = flag.Uint64("seed", 1, "generator seed")
	)
	flag.Parse()

	c, err := generate(*kind, *triples, *queries, *seed)
	if err == nil {
		err = writeFile(*out+".nt", c.writeData)
	}
	if err == nil {
		err = writeFile(*out+".rq", c.writeWorkload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s.nt (%d triples) and %s.rq (%d queries)\n", *out, len(c.triples), *out, len(c.log))
}

// corpus is a generated dataset as datagen writes it: the triples in the
// order the generator made them — the bytes of the data file are pinned by
// the benchmark, and a graph keeps no order to ask for — and the workload.
type corpus struct {
	graph   *rdf.Graph
	triples []rdf.Triple
	log     []*sparql.Graph
}

func generate(kind string, triples, queries int, seed uint64) (*corpus, error) {
	switch kind {
	case "dbpedia":
		db, err := workload.GenerateDBpedia(workload.DBpediaOptions{
			Triples: triples, Queries: queries, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return &corpus{db.Graph, db.Triples, db.Log}, nil
	case "watdiv":
		ds := watdiv.Generate(watdiv.Options{Triples: triples, Seed: seed})
		wl, err := ds.GenerateWorkload(queries, seed+1)
		if err != nil {
			return nil, err
		}
		return &corpus{ds.Graph, ds.Triples, wl}, nil
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

func (c *corpus) writeData(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range c.triples {
		fmt.Fprintln(bw, c.graph.TripleString(t))
	}
	return bw.Flush()
}

func (c *corpus) writeWorkload(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, q := range c.log {
		if i > 0 {
			fmt.Fprintln(bw, "---")
		}
		fmt.Fprintf(bw, "SELECT * WHERE { %s }\n", q.StringWithDict(c.graph.Dict))
	}
	return bw.Flush()
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
