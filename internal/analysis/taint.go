package analysis

import "sort"

// Taint mode for detrand and walltime.
//
// The syntactic passes flag a sink (a global math/rand draw, a wall-clock
// read) only in the package where it textually occurs. That leaves two
// blind spots the call graph closes:
//
//  1. A scoped package calls a helper in an UNSCOPED package whose body
//     (possibly through further unscoped helpers) reaches the sink. The
//     helper is legal where it lives, but the call site imports
//     nondeterminism into the deterministic layer. Reported at the
//     boundary call site, with the chain to the sink in the diagnostic.
//
//  2. A sink was locally sanctioned with //lint:ignore. The suppression
//     justifies that one line — it says nothing about callers. Direct
//     callers in scoped packages are reported, each needing its own
//     justification (or a fix). Propagation stops at scoped frames: a
//     scoped function either gets its own diagnostic or carries its own
//     suppression, taking responsibility for its callers.
//
// Sanctioned packages (WalltimeAllow for walltime) contribute no sinks and
// never propagate: calling internal/clock is the sanctioned way to touch
// real time, so the injected-clock contract stays expressible.

// taintSpec parameterizes the shared taint computation for one analyzer.
type taintSpec struct {
	analyzer string
	// facts selects the direct sinks of a node.
	facts func(*FuncNode) []SinkFact
	// sanctioned packages neither sink nor propagate (may be empty).
	sanctioned func(*Config) []string
	// syntacticallyVisible reports whether a sink in pkg rel would be
	// flagged by the per-package pass (before suppression).
	syntacticallyVisible func(cfg *Config, rel string) bool
	what                 string // human phrase: "the global math/rand source"
}

// runTaint reports, for every call site in a DetScope package, a callee
// that transitively reaches an invisible sink. DetScope is also where
// propagation stops.
func runTaint(mp *ModulePass, spec taintSpec) {
	m := mp.Module
	cfg := mp.Config
	scope := cfg.DetScope
	sanctioned := spec.sanctioned(cfg)

	invisibleFacts := func(n *FuncNode) []SinkFact {
		if inScope(n.relPath(), sanctioned) {
			return nil // sanctioned layer: not a sink at all
		}
		all := spec.facts(n)
		var out []SinkFact
		for _, f := range all {
			pos := m.Fset.Position(f.Pos)
			if spec.syntacticallyVisible(cfg, n.relPath()) && !m.suppressedAt(spec.analyzer, pos.Filename, pos.Line) {
				continue // the syntactic pass reports it there; no taint
			}
			out = append(out, f)
		}
		return out
	}
	canPropagate := func(n *FuncNode) bool {
		return !inScope(n.relPath(), scope) && !inScope(n.relPath(), sanctioned)
	}

	reach := m.reachability(invisibleFacts, canPropagate)
	if len(reach) == 0 {
		return
	}

	for _, node := range m.nodes {
		if !inScope(node.relPath(), scope) {
			continue
		}
		// One diagnostic per call site; edges in source order.
		edges := append([]CallEdge(nil), node.Calls...)
		sort.Slice(edges, func(i, j int) bool { return edges[i].Pos < edges[j].Pos })
		for _, e := range edges {
			callee := m.funcs[e.Callee]
			if callee == nil || reach[callee] == nil {
				continue
			}
			if callee == node {
				continue // self-recursion: the sink diagnostic covers it
			}
			path := append([]PathStep{positionStep(m.Fset, m.FuncLabel(node.Fn), e.Pos)},
				m.witnessPath(callee, reach)...)
			sink := path[len(path)-1]
			mp.ReportPath(e.Pos, path,
				"call to %s transitively reaches %s (%s at %s:%d)",
				m.FuncLabel(e.Callee), spec.what, sink.Func, sink.File, sink.Line)
		}
	}
}

func runDetRandTaint(mp *ModulePass) {
	runTaint(mp, taintSpec{
		analyzer:   "detrand",
		facts:      func(n *FuncNode) []SinkFact { return n.RandSinks },
		sanctioned: func(c *Config) []string { return nil },
		syntacticallyVisible: func(c *Config, rel string) bool {
			return pathIn(rel, c.DetScope)
		},
		what: "the global math/rand source",
	})
}

func runWalltimeTaint(mp *ModulePass) {
	runTaint(mp, taintSpec{
		analyzer:   "walltime",
		facts:      func(n *FuncNode) []SinkFact { return n.WallSinks },
		sanctioned: func(c *Config) []string { return c.WalltimeAllow },
		syntacticallyVisible: func(c *Config, rel string) bool {
			return !pathIn(rel, c.WalltimeAllow)
		},
		what: "the wall clock",
	})
}
