package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Generator produces one experiment's report.
type Generator func(Config) *Report

// registry maps experiment IDs to their generators.
var registry = map[string]Generator{
	"table1":               Table1,
	"table2":               Table2,
	"table3":               Table3,
	"table4":               Table4,
	"table5":               Table5,
	"figure2":              Figure2,
	"figure3":              Figure3,
	"figure4":              Figure4,
	"figure5":              Figure5,
	"figure6":              Figure6,
	"figure7":              Figure7,
	"topoyield":            TopologyYield,
	"extension-perflow":    ExtensionPerFlow,
	"extension-bbr":        ExtensionBBR,
	"ablation-correlation": AblationCorrelation,
	"ablation-intervals":   AblationIntervals,
	"ablation-vote":        AblationVote,
	"ablation-mwu":         AblationMWU,
	"ablation-pacing":      AblationPacing,
}

// extraRegistry holds opt-in experiments that are addressable by name but
// excluded from Names()/RunAll — they don't belong in the committed
// `-run all` output (e.g. the full-rate scale ablation, whose fluid arms
// would churn experiments_output.txt on every tuning change).
var extraRegistry = map[string]Generator{
	"ablation-scale": AblationScale,
}

// Names returns the default experiment IDs (the `-run all` set), sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ExtraNames returns the opt-in experiment IDs, sorted.
func ExtraNames() []string {
	out := make([]string, 0, len(extraRegistry))
	for k := range extraRegistry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the generator for an experiment ID, default or opt-in.
func Lookup(name string) (Generator, bool) {
	if g, ok := registry[name]; ok {
		return g, ok
	}
	g, ok := extraRegistry[name]
	return g, ok
}

// Run generates and renders one experiment.
func Run(w io.Writer, name string, cfg Config) error {
	g, ok := Lookup(name)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v, opt-in %v)", name, Names(), ExtraNames())
	}
	g(cfg).Render(w)
	return nil
}

// RunAll generates and renders every registered experiment.
func RunAll(w io.Writer, cfg Config) {
	for _, name := range Names() {
		g, _ := Lookup(name)
		g(cfg).Render(w)
		fmt.Fprintln(w)
	}
}
