package main

// A small reference SPARQL evaluator over the N-Triples input, sharing
// no code with the program under test: basic graph patterns of IRI and
// variable terms, joined through hash indexes, projected and made
// distinct (the program returns distinct projected rows). Every answer
// the benchmark reads is checked against it.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

type pair struct{ a, b int32 }

// store is the data set as interned term IDs with the three indexes the
// join needs.
type store struct {
	ids   map[string]int32
	terms []string // N-Triples form: <iri> or "literal"
	sp    map[pair][]int32
	po    map[pair][]int32
	p     map[int32][]pair
	n     int
}

func newStore() *store {
	return &store{ids: map[string]int32{}, sp: map[pair][]int32{}, po: map[pair][]int32{}, p: map[int32][]pair{}}
}

func (st *store) id(term string) int32 {
	if id, ok := st.ids[term]; ok {
		return id
	}
	id := int32(len(st.terms))
	st.ids[term], st.terms = id, append(st.terms, term)
	return id
}

func (st *store) add(s, p, o int32) {
	st.sp[pair{s, p}] = append(st.sp[pair{s, p}], o)
	st.po[pair{p, o}] = append(st.po[pair{p, o}], s)
	st.p[p] = append(st.p[p], pair{s, o})
	st.n++
}

// loadNT reads "<s> <p> <o-or-literal> ." lines.
func loadNT(r io.Reader) (*store, error) {
	st := newStore()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, rest, ok1 := strings.Cut(line, " ")
		p, rest, ok2 := strings.Cut(rest, " ")
		o := strings.TrimSpace(strings.TrimSuffix(rest, "."))
		if !ok1 || !ok2 || o == "" || !strings.HasSuffix(rest, ".") {
			return nil, fmt.Errorf("oracle: line %d: not a triple: %q", ln, line)
		}
		st.add(st.id(s), st.id(p), st.id(o))
	}
	return st, sc.Err()
}

// query is a parsed SELECT over a basic graph pattern. Pattern terms
// are variables ("?x") or constants in N-Triples form.
type query struct {
	sel      []string
	patterns [][3]string
}

// parseQuery reads the subset the benchmark's templates use:
// SELECT ?a ?b WHERE { t t t . t t t . }
func parseQuery(text string) (query, error) {
	var q query
	head, body, ok := strings.Cut(text, "{")
	body, _, ok2 := strings.Cut(body, "}")
	f := strings.Fields(head)
	if !ok || !ok2 || len(f) < 3 || !strings.EqualFold(f[0], "SELECT") || !strings.EqualFold(f[len(f)-1], "WHERE") {
		return q, fmt.Errorf("oracle: unsupported query %q", text)
	}
	toks := strings.Fields(body)
	// A selected variable the pattern never binds (F4's ?r) is left out
	// of the answer, as the program leaves it out.
	for _, v := range f[1 : len(f)-1] {
		for _, t := range toks {
			if t == v {
				q.sel = append(q.sel, strings.TrimPrefix(v, "?"))
				break
			}
		}
	}
	for len(toks) > 0 {
		if toks[0] == "." {
			toks = toks[1:]
			continue
		}
		if len(toks) < 3 {
			return q, fmt.Errorf("oracle: dangling pattern in %q", text)
		}
		q.patterns = append(q.patterns, [3]string{toks[0], toks[1], toks[2]})
		toks = toks[3:]
	}
	if len(q.patterns) == 0 {
		return q, fmt.Errorf("oracle: no patterns in %q", text)
	}
	return q, nil
}

// answer is what a correct response must match: how many distinct rows,
// and a hash of them that does not depend on their order.
type answer struct {
	rows int
	hash uint64
}

// hashTerm folds one bound term into a row's running FNV-1a hash: kind
// is 'u' for an IRI and 'l' for a literal.
func hashTerm[T string | []byte](h uint64, kind byte, v T) uint64 {
	const prime = 1099511628211
	h = (h ^ uint64(kind)) * prime
	for i := 0; i < len(v); i++ {
		h = (h ^ uint64(v[i])) * prime
	}
	return h * prime // a zero terminator, so ("ab","c") differs from ("a","bc")
}

const hashSeed = 14695981039346656037

// mix finishes a row hash (the splitmix64 finaliser), so that the sum
// over rows does not inherit FNV's weak low bits.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// termKV splits an N-Triples term into the (kind, value) a SPARQL JSON
// result carries for it.
func termKV(t string) (byte, string) {
	if strings.HasPrefix(t, "<") {
		return 'u', t[1 : len(t)-1]
	}
	return 'l', ntUnescape.Replace(t[1:strings.LastIndexByte(t, '"')])
}

var ntUnescape = strings.NewReplacer(`\"`, `"`, `\\`, `\`, `\n`, "\n", `\t`, "\t", `\r`, "\r")

// eval answers q: patterns are joined one at a time, always taking next
// the pattern with the most positions already bound, through the (s,p),
// (p,o) or p index.
func (st *store) eval(q query) answer {
	vars := map[string]int{}
	slot := func(t string) (int, int32, bool) { // variable slot, or constant id
		if strings.HasPrefix(t, "?") {
			v, ok := vars[t[1:]]
			if !ok {
				v = len(vars)
				vars[t[1:]] = v
			}
			return v, 0, true
		}
		id, ok := st.ids[t]
		if !ok {
			id = -1
		}
		return -1, id, false
	}
	type tp struct {
		v  [3]int   // variable slot per position, -1 for constants
		c  [3]int32 // constant id per position
		ok bool
	}
	pats := make([]tp, len(q.patterns))
	for i, p := range q.patterns {
		pats[i].ok = true
		for k := 0; k < 3; k++ {
			v, c, isVar := slot(p[k])
			pats[i].v[k], pats[i].c[k] = v, c
			if !isVar && c < 0 {
				pats[i].ok = false // a constant the data never mentions
			}
		}
	}
	for _, p := range pats {
		if !p.ok || p.v[1] >= 0 {
			return answer{} // unknown constant; variable predicates are unused
		}
	}
	bound := make([]bool, len(vars))
	rows := [][]int32{make([]int32, len(vars))}
	done := make([]bool, len(pats))
	for range pats {
		best, bestScore := -1, -1
		for i, p := range pats {
			if done[i] {
				continue
			}
			score := 0
			for _, k := range []int{0, 2} {
				if p.v[k] < 0 || bound[p.v[k]] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		p := pats[best]
		done[best] = true
		sB, oB := p.v[0] < 0 || bound[p.v[0]], p.v[2] < 0 || bound[p.v[2]]
		val := func(row []int32, k int) int32 {
			if p.v[k] < 0 {
				return p.c[k]
			}
			return row[p.v[k]]
		}
		var next [][]int32
		emit := func(row []int32, s, o int32) {
			if p.v[0] >= 0 && p.v[0] == p.v[2] && s != o {
				return
			}
			r := append([]int32(nil), row...)
			if p.v[0] >= 0 {
				r[p.v[0]] = s
			}
			if p.v[2] >= 0 {
				r[p.v[2]] = o
			}
			next = append(next, r)
		}
		for _, row := range rows {
			switch {
			case sB && oB:
				s, o := val(row, 0), val(row, 2)
				for _, x := range st.sp[pair{s, p.c[1]}] {
					if x == o {
						emit(row, s, o)
						break
					}
				}
			case sB:
				s := val(row, 0)
				for _, o := range st.sp[pair{s, p.c[1]}] {
					emit(row, s, o)
				}
			case oB:
				o := val(row, 2)
				for _, s := range st.po[pair{p.c[1], o}] {
					emit(row, s, o)
				}
			default:
				for _, so := range st.p[p.c[1]] {
					emit(row, so.a, so.b)
				}
			}
		}
		rows = next
		for _, k := range []int{0, 2} {
			if p.v[k] >= 0 {
				bound[p.v[k]] = true
			}
		}
	}
	// Project, make distinct, hash.
	proj := make([]int, 0, len(q.sel))
	for _, v := range q.sel {
		if i, ok := vars[v]; ok {
			proj = append(proj, i)
		}
	}
	seen := map[string]struct{}{}
	var ans answer
	key := make([]byte, 0, 4*len(proj))
	for _, row := range rows {
		key = key[:0]
		for _, i := range proj {
			id := row[i]
			key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		h := uint64(hashSeed)
		for _, i := range proj {
			kind, v := termKV(st.terms[row[i]])
			h = hashTerm(h, kind, v)
		}
		ans.rows++
		ans.hash += mix(h)
	}
	return ans
}

// distinct lists, sorted, the distinct subjects (or objects) of
// predicate p; the templates' placeholders draw constants from these.
func (st *store) distinct(p string, subjects bool) []string {
	seen := map[int32]bool{}
	var out []string
	for _, so := range st.p[st.ids[p]] {
		id := so.b
		if subjects {
			id = so.a
		}
		if !seen[id] {
			seen[id] = true
			out = append(out, st.terms[id])
		}
	}
	sort.Strings(out)
	return out
}
