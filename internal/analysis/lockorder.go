package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// NewLockOrder builds the lockorder pass: the whole-repo
// lock-acquisition-order graph must be acyclic. A mutex's identity is
// its owning struct type plus field name ("rados.pg.mu"), so two
// daemons acquiring the same pair of locks in opposite orders are one
// cycle even when the acquisitions sit in different packages. An edge
// A -> B is recorded whenever B is acquired while A is held — directly,
// or through up to four synchronous call hops — and every edge carries
// the call-path witness to its Lock call. Self-edges are skipped:
// type-level identity cannot distinguish two instances of one struct,
// and the per-object locks (objEntry.mu) rely on exactly that.
func NewLockOrder() *Pass {
	p := &Pass{
		Name:  "lockorder",
		Doc:   "the cross-package lock-acquisition-order graph must have no cycles",
		Scope: inPrefix("repro/"),
	}
	p.Run = byPackage(func(idx *Index) map[string][]Diagnostic { return lockOrderDiagnostics(p.Name, idx) })
	return p
}

// loEdge is one lock-order edge with its witness: while from was held
// (acquired at fromPos), to was acquired at the end of chain.
type loEdge struct {
	from, to string
	pkg      string
	fromPos  token.Position
	chain    []chainStep
}

// lockOrderDiagnostics turns the one held-lock walk (flow.go) into
// order edges: at each acquisition, direct or through a callee's
// acquire summary, an edge from every held lock with an identity. Local
// mutexes have none and make no edges.
func lockOrderDiagnostics(pass string, idx *Index) map[string][]Diagnostic {
	acq := acquireSummaries(idx)
	edges := make(map[[2]string]loEdge)
	for _, s := range heldSites(idx) {
		call, ok := s.node.(*ast.CallExpr)
		if !ok {
			continue
		}
		pos := s.pkg.position(call.Pos())
		var to []reached
		switch op, lockExpr := lockOp(s.pkg, call); op {
		case opLock:
			if ident, ok := lockIdentOf(s.pkg, lockExpr); ok {
				to = []reached{{key: ident, chain: []chainStep{{name: ident, pos: pos}}}}
			}
		case 0:
			if fn := Callee(s.pkg.Info, call); fn != nil {
				for _, a := range acq[fn.FullName()] {
					to = append(to, reached{key: a.key, chain: append([]chainStep{{name: fn.FullName(), pos: pos}}, a.chain...)})
				}
			}
		}
		for _, l := range s.locks {
			if !l.held() || l.ident == "" {
				continue
			}
			for _, a := range to {
				k := [2]string{l.ident, a.key}
				if _, ok := edges[k]; ok || l.ident == a.key {
					continue
				}
				edges[k] = loEdge{from: l.ident, to: a.key, pkg: s.pkg.Path, fromPos: s.pkg.position(l.acquired), chain: a.chain}
			}
		}
	}
	return lockCycleDiagnostics(pass, edges)
}

// lockCycleDiagnostics runs Tarjan's SCC over the edge set and reports
// one finding per cyclic component, with the shortest cycle through the
// component's smallest identity as the witness.
func lockCycleDiagnostics(pass string, edges map[[2]string]loEdge) map[string][]Diagnostic {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
		nodes[k[0]], nodes[k[1]] = true, true
	}
	for _, succ := range adj {
		sort.Strings(succ)
	}

	byPkg := make(map[string][]Diagnostic)
	for _, scc := range stronglyConnected(nodes, adj) {
		if len(scc) < 2 {
			continue // self-edges are skipped at construction
		}
		sort.Strings(scc)
		cycle := shortestCycle(scc[0], scc, adj)
		if len(cycle) == 0 {
			continue
		}
		var (
			path    []string
			related []Related
			details []string
		)
		first := edges[[2]string{cycle[0], cycle[1%len(cycle)]}]
		for i, from := range cycle {
			to := cycle[(i+1)%len(cycle)]
			e := edges[[2]string{from, to}]
			path = append(path, shortName(from))
			details = append(details, fmt.Sprintf("%s then %s via %s", shortName(from), shortName(to), renderChain(e.chain)))
			related = append(related, Related{Pos: e.fromPos, Note: shortName(from) + " held here"})
			related = append(related, relatedOf(e.chain)...)
		}
		path = append(path, shortName(cycle[0]))
		byPkg[first.pkg] = append(byPkg[first.pkg], Diagnostic{
			Pos:  first.chain[len(first.chain)-1].pos,
			Pass: pass,
			Message: fmt.Sprintf("lock-order cycle %s: %s",
				strings.Join(path, " -> "), strings.Join(details, "; ")),
			Related: related,
		})
	}
	return byPkg
}

// stronglyConnected is Tarjan's algorithm, iterative over sorted nodes
// for determinism.
func stronglyConnected(nodes map[string]bool, adj map[string][]string) [][]string {
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range names {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
	return sccs
}

// shortestCycle BFSes within the component from start back to start,
// returning the node sequence without the repeated endpoint.
func shortestCycle(start string, scc []string, adj map[string][]string) []string {
	in := make(map[string]bool, len(scc))
	for _, n := range scc {
		in[n] = true
	}
	prev := map[string]string{start: ""}
	queue := []string{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !in[w] {
				continue
			}
			if w == start {
				cycle := []string{v}
				for p := prev[v]; p != ""; p = prev[p] {
					cycle = append(cycle, p)
				}
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return cycle
			}
			if _, seen := prev[w]; !seen {
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	return nil
}
