package fleet

import (
	"fmt"

	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/tomo"
	"github.com/nal-epfl/wehey/internal/topology"
)

// Candidate network segments are AS-granular: the access ISP, the transit
// AS between it and the server site, and the server site itself — the
// resolution at which a fleet can meaningfully attribute differentiation
// (per-router attribution would need per-hop path data the sessions do
// not carry). Segment IDs are stable strings so the identifiability
// report, the Map, and wehey-map's JSON all name the same things.

// ISPSegment names access ISP i's segment.
func ISPSegment(i int) string { return fmt.Sprintf("isp-%d", i) }

// TransitSegment names transit AS t's segment.
func TransitSegment(t int) string { return fmt.Sprintf("transit-%d", t) }

// ServerSegment names server site s's segment.
func ServerSegment(s int) string { return fmt.Sprintf("server-%d", s) }

// SessionPath is the AS-level segment sequence of a session from server
// site `server` to a client in ISP `isp`, following the synthetic
// Internet's homing rule (topology.Synthesize): each server site is homed
// behind transit AS server%TransitASes, and every route from it to the
// ISP's clients crosses exactly that transit AS before entering the ISP.
func SessionPath(spec topology.SynthSpec, isp, server int) []string {
	spec = spec.Filled()
	return []string{
		ServerSegment(server),
		TransitSegment(server % spec.TransitASes),
		ISPSegment(isp),
	}
}

// BuildPathMatrix assembles the boolean path-incidence matrix of a
// campaign plan over the synthetic topology: one row per distinct
// (ISP, server) route the plan's sessions traverse, plus a declared
// column for every candidate ISP — so deliberately path-starved ISPs
// appear in the report as unobserved rather than vanishing from it.
func BuildPathMatrix(topo topology.SynthSpec, plan []experiments.FleetSession) *tomo.PathMatrix {
	topo = topo.Filled()
	m := tomo.NewPathMatrix()
	for i := 0; i < topo.ISPs; i++ {
		m.AddSegment(ISPSegment(i))
	}
	// A session's path is a function of its (ISP, server) route alone, so
	// only a route's first session has anything to add.
	type route struct{ isp, server int }
	added := make(map[route]bool)
	for _, sess := range plan {
		if r := (route{sess.ISP, sess.Server}); !added[r] {
			added[r] = true
			m.AddPath(SessionPath(topo, sess.ISP, sess.Server))
		}
	}
	return m
}
