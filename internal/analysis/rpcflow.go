package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// NewRPCFlow builds the rpcflow pass over the RPC topology: no
// synchronous wait-for cycles between daemon handlers. Handler H1 issues
// a wire Call whose destination endpoint is served by H2, and following
// such edges leads back to H1. With every daemon handler occupying its
// caller's goroutine, such a cycle is a distributed deadlock once the
// fabric saturates. Relay-protocol edges — the caller marks a boolean
// field (Forwarded / Replica / Proxied) that the receiving package
// branches on — are recorded but exempt, since a relayed request never
// relays again. A lock held while a call reaches an RPC, through any
// number of hops, is lockblock's finding.
func NewRPCFlow() *Pass {
	p := &Pass{
		Name: "rpcflow",
		Doc:  "no synchronous handler wait-for cycles",
		Scope: inPackages(
			"repro/internal/mon",
			"repro/internal/mds",
			"repro/internal/rados",
			"repro/internal/paxos",
			"repro/internal/zlog",
			"repro/internal/wire",
		),
	}
	p.Run = byPackage(func(idx *Index) map[string][]Diagnostic {
		byPkg := make(map[string][]Diagnostic)
		waitForCycles(p.Name, daemonEdges(idx, listenEndpoints(idx)), func(pkg string, d Diagnostic) {
			byPkg[pkg] = append(byPkg[pkg], d)
		})
		return byPkg
	})
	return p
}

// waitForCycles reports cycles (including self-loops) over the
// unguarded synchronous handler->handler edges.
func waitForCycles(pass string, edges []daemonEdge, add func(string, Diagnostic)) {
	// Deduplicate to one witness per (from, to); edges arrive sorted so
	// the first witness is position-stable.
	best := make(map[[2]string]daemonEdge)
	nodes := make(map[string]bool)
	adj := make(map[string][]string)
	for _, e := range edges {
		if e.guarded {
			continue
		}
		k := [2]string{e.from, e.to}
		if _, ok := best[k]; ok {
			continue
		}
		best[k] = e
		nodes[e.from], nodes[e.to] = true, true
		adj[e.from] = append(adj[e.from], e.to)
	}

	report := func(cycle []string) {
		var (
			path    []string
			details []string
			related []Related
		)
		first := best[[2]string{cycle[0], cycle[1%len(cycle)]}]
		for i, from := range cycle {
			to := cycle[(i+1)%len(cycle)]
			e := best[[2]string{from, to}]
			path = append(path, shortName(from))
			details = append(details, fmt.Sprintf("%s calls into %s via %s", shortName(from), shortName(to), renderChain(e.chain)))
			related = append(related, relatedOf(e.chain)...)
		}
		path = append(path, shortName(cycle[0]))
		pkg := pkgOfFunc(cycle[0])
		add(pkg, Diagnostic{
			Pos:  first.pos,
			Pass: pass,
			Message: fmt.Sprintf("synchronous RPC wait-for cycle %s: %s",
				strings.Join(path, " -> "), strings.Join(details, "; ")),
			Related: related,
		})
	}

	// Self-loops first: an SCC of size one.
	var selfs []string
	for k := range best {
		if k[0] == k[1] {
			selfs = append(selfs, k[0])
		}
	}
	sort.Strings(selfs)
	for _, n := range selfs {
		report([]string{n})
	}
	for _, scc := range stronglyConnected(nodes, adj) {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		if cycle := shortestCycle(scc[0], scc, adj); len(cycle) > 0 {
			report(cycle)
		}
	}
}

// pkgOfFunc extracts the package path from a types.Func full name —
// "(*repro/internal/rados.OSD).handle" for a method,
// "repro/internal/rados.OSDAddr" for a package function.
func pkgOfFunc(full string) string {
	s := strings.TrimPrefix(full, "(")
	s = strings.TrimPrefix(s, "*")
	if i := strings.LastIndex(s, "/"); i >= 0 {
		if j := strings.IndexByte(s[i:], '.'); j >= 0 {
			return s[:i+j]
		}
	}
	if j := strings.IndexByte(s, '.'); j >= 0 {
		return s[:j]
	}
	return s
}
