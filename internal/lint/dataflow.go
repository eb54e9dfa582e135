package lint

import "go/ast"

// Forward-dataflow worklist engine over the CFGs of cfg.go. Clients
// implement Lattice; the engine computes the fact holding at the entry of
// every reachable block, branch-sensitively: facts are refined along
// edges using the condition/case information the CFG records, so a client
// can learn e.g. "rc.State == RcLocking" inside the true arm of a guard.

// Lattice defines one forward analysis. F is the fact type; facts must be
// treated as immutable by the engine's clients (Transfer/Refine return
// fresh values or the input unchanged).
type Lattice[F any] interface {
	// Entry is the fact at function entry.
	Entry() F
	// Transfer applies one straight-line node.
	Transfer(n ast.Node, f F) F
	// Refine applies an edge's condition. Returning ok=false marks the
	// edge infeasible under f (the successor is not reached along it).
	Refine(e Edge, f F) (F, bool)
	// Join merges facts from two predecessors.
	Join(a, b F) F
	// Equal reports convergence.
	Equal(a, b F) bool
}

// Forward computes the entry fact of every reachable block. Unreachable
// blocks are absent from the result.
func Forward[F any](g *CFG, lat Lattice[F]) map[*Block]F {
	in := make(map[*Block]F)
	in[g.Entry] = lat.Entry()
	work := []*Block{g.Entry}
	// Bound iteration defensively: a non-converging lattice is a client
	// bug, not a reason to spin forever.
	budget := (len(g.Blocks) + 1) * 256
	for len(work) > 0 && budget > 0 {
		budget--
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		f := in[blk]
		for _, n := range blk.Nodes {
			f = lat.Transfer(n, f)
		}
		for _, e := range blk.Succs {
			ef, ok := lat.Refine(e, f)
			if !ok {
				continue
			}
			old, seen := in[e.To]
			if !seen {
				in[e.To] = ef
				work = append(work, e.To)
				continue
			}
			j := lat.Join(old, ef)
			if !lat.Equal(j, old) {
				in[e.To] = j
				work = append(work, e.To)
			}
		}
	}
	return in
}

// ForwardVisit runs Forward and then replays each reachable block,
// calling visit with the fact holding immediately before each node.
func ForwardVisit[F any](g *CFG, lat Lattice[F], visit func(n ast.Node, before F)) {
	in := Forward(g, lat)
	for _, blk := range g.Blocks {
		f, ok := in[blk]
		if !ok {
			continue
		}
		for _, n := range blk.Nodes {
			visit(n, f)
			f = lat.Transfer(n, f)
		}
	}
}
