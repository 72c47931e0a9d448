package partition

import (
	"testing"
)

// ring builds a cycle of n vertices.
func ring(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 1)
	}
	return g
}

// twoClusters builds two dense cliques joined by a single edge.
func twoClusters(size int) *Graph {
	g := NewGraph(2 * size)
	for c := 0; c < 2; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				g.AddEdge(base+i, base+j, 1)
			}
		}
	}
	g.AddEdge(0, size, 1) // bridge
	return g
}

// edgeCut is the total weight of the edges crossing parts: what
// Partition minimizes.
func edgeCut(g *Graph, part []int) int {
	cut := 0
	for v := range g.Adj {
		for _, nb := range g.Adj[v] {
			if v < nb.V && part[v] != part[nb.V] {
				cut += nb.W
			}
		}
	}
	return cut
}

func TestPartitionAssignsAllVertices(t *testing.T) {
	g := ring(100)
	part := g.Partition(4, Options{Seed: 1})
	if len(part) != 100 {
		t.Fatalf("part length = %d", len(part))
	}
	counts := map[int]int{}
	for _, p := range part {
		if p < 0 || p >= 4 {
			t.Fatalf("part id %d out of range", p)
		}
		counts[p]++
	}
	if len(counts) != 4 {
		t.Errorf("only %d parts used", len(counts))
	}
}

func TestPartitionBalance(t *testing.T) {
	g := ring(200)
	part := g.Partition(4, Options{Seed: 7, Imbalance: 0.15})
	counts := make([]int, 4)
	for _, p := range part {
		counts[p]++
	}
	for p, c := range counts {
		if c < 20 || c > 90 {
			t.Errorf("part %d has %d vertices: badly unbalanced %v", p, c, counts)
		}
	}
}

func TestPartitionFindsNaturalCut(t *testing.T) {
	g := twoClusters(20)
	part := g.Partition(2, Options{Seed: 3})
	cut := edgeCut(g, part)
	// The natural cut is 1 (the bridge); allow a little slack but it must
	// be far below a random split (~ size²/2 for cliques).
	if cut > 10 {
		t.Errorf("cut = %d, want near 1", cut)
	}
	// Cluster members should be co-located.
	same := 0
	for i := 1; i < 20; i++ {
		if part[i] == part[0] {
			same++
		}
	}
	if same < 15 {
		t.Errorf("first clique split: only %d/19 with vertex 0", same)
	}
}

func TestPartitionK1(t *testing.T) {
	g := ring(10)
	part := g.Partition(1, Options{})
	for _, p := range part {
		if p != 0 {
			t.Fatalf("k=1 produced part %d", p)
		}
	}
	if edgeCut(g, part) != 0 {
		t.Error("k=1 cut non-zero")
	}
}

func TestPartitionDisconnected(t *testing.T) {
	g := NewGraph(30) // 15 isolated pairs
	for i := 0; i < 30; i += 2 {
		g.AddEdge(i, i+1, 1)
	}
	part := g.Partition(3, Options{Seed: 11})
	counts := map[int]int{}
	for _, p := range part {
		counts[p]++
	}
	if len(counts) != 3 {
		t.Errorf("parts used = %d, want 3", len(counts))
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := twoClusters(15)
	p1 := g.Partition(3, Options{Seed: 42})
	p2 := g.Partition(3, Options{Seed: 42})
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestAddEdgeMergesWeights(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 3)
	g.AddEdge(0, 1, 4)
	if len(g.Adj[0]) != 1 || g.Adj[0][0].W != 7 {
		t.Errorf("adjacency = %+v", g.Adj[0])
	}
	g.AddEdge(1, 1, 9) // self loop ignored
	if len(g.Adj[1]) != 1 {
		t.Errorf("self loop stored: %+v", g.Adj[1])
	}
}

func TestEdgeCutZeroWhenTogether(t *testing.T) {
	g := ring(8)
	part := make([]int, 8)
	if edgeCut(g, part) != 0 {
		t.Error("cut of single-part assignment non-zero")
	}
	part[0] = 1
	if edgeCut(g, part) != 2 {
		t.Errorf("cut = %d, want 2", edgeCut(g, part))
	}
}

func TestCoarsenPreservesWeight(t *testing.T) {
	g := ring(64)
	cg, mapping := coarsen(g, 5)
	if len(cg.Adj) >= len(g.Adj) {
		t.Fatalf("coarsening did not shrink: %d -> %d", len(g.Adj), len(cg.Adj))
	}
	if cg.totalVWeight() != g.totalVWeight() {
		t.Errorf("vertex weight not preserved: %d vs %d", cg.totalVWeight(), g.totalVWeight())
	}
	for v, cv := range mapping {
		if cv < 0 || cv >= len(cg.Adj) {
			t.Fatalf("vertex %d mapped to %d", v, cv)
		}
	}
}
