package analysis

import "strings"

// Config scopes analyzers to the package layers whose invariants they
// encode. Paths are module-relative import paths; an entry matches the
// package itself and everything below it ("internal/netsim" also covers
// "internal/netsim/foo").
type Config struct {
	// DetScope lists the deterministic layers. There, calls to the global
	// math/rand source are forbidden (randomness flows through an injected
	// *rand.Rand so experiment seeds fully determine behaviour), and the
	// detrand and walltime taint passes report call sites whose callee
	// reaches either sink through helper packages or locally suppressed
	// sinks. Direct wall-clock reads are reported everywhere outside
	// WalltimeAllow by the syntactic walltime pass.
	DetScope []string
	// WalltimeAllow lists the real-clock layers (and only those) allowed
	// to call time.Now / time.Since. Everything else in the module — the
	// simulator, experiments, stats, and the top-level binaries — runs in
	// simulated or injected time.
	WalltimeAllow []string
	// PktLifeScope lists the packages whose functions are checked for
	// packet lifecycle violations (use-after-free, double-free, leaked
	// drop paths) against the netsim Engine freelist.
	PktLifeScope []string
	// LockHeldScope lists the packages in which holding a mutex across a
	// (transitively) blocking call is reported.
	LockHeldScope []string
	// CacheKeyGolden is the path, relative to the module root, of the
	// committed spec-struct fingerprint golden the cachekey analyzer
	// checks. Empty or missing file disables the fingerprint check (field
	// coverage still runs).
	CacheKeyGolden string
}

// DefaultConfig encodes this repository's layering: the simulator and the
// analysis pipelines above it are deterministic; the loopback testbed, the
// real UDP transport, and the clock helper are the sanctioned real-time
// layers.
func DefaultConfig() *Config {
	return &Config{
		DetScope: []string{
			"internal/core",
			"internal/experiments",
			"internal/fleet",
			"internal/isp",
			"internal/measure",
			"internal/netsim",
			"internal/service",
			"internal/stats",
			"internal/tomo",
			"internal/topology",
			"internal/trace",
			"internal/twin",
			"internal/wehe",
		},
		WalltimeAllow: []string{
			"internal/clock",
			"internal/testbed",
			"internal/transport",
		},
		PktLifeScope:   []string{"internal/netsim"},
		LockHeldScope:  []string{"internal/service"},
		CacheKeyGolden: "internal/analysis/cachekey.golden",
	}
}

// pathIn reports whether relPath is covered by one of the scope entries.
func pathIn(relPath string, scope []string) bool {
	for _, s := range scope {
		if relPath == s || strings.HasPrefix(relPath, s+"/") {
			return true
		}
	}
	return false
}
