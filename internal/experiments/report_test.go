package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestReportRender(t *testing.T) {
	r := &Report{
		ID:    "test",
		Title: "A Test Report",
		Paper: "paper says 42",
		Tables: []Table{{
			Name:   "numbers",
			Header: []string{"metric", "value"},
			Rows:   [][]string{{"alpha", "1"}, {"beta", "22"}},
		}},
		Series: []Series{{
			Name: "curve", XLabel: "x", YLabel: "y",
			X: []float64{0, 1, 2}, Y: []float64{5, 7, 6},
		}},
		Notes: []string{"a note"},
	}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{"test", "A Test Report", "paper says 42",
		"numbers", "alpha", "22", "curve", "a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 10); got != "(empty)" {
		t.Errorf("empty sparkline = %q", got)
	}
	s := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if len([]rune(s)) != 8 {
		t.Errorf("sparkline width = %d", len([]rune(s)))
	}
	// Monotone input → non-decreasing blocks.
	runes := []rune(s)
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Errorf("sparkline not monotone: %s", s)
		}
	}
	// Constant input stays at the floor block.
	flat := sparkline([]float64{3, 3, 3}, 3)
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat sparkline = %s", flat)
		}
	}
	// Downsampling long input.
	long := make([]float64, 1000)
	if got := sparkline(long, 40); len([]rune(got)) != 40 {
		t.Errorf("downsampled width = %d", len([]rune(got)))
	}
}

func TestConfigTrials(t *testing.T) {
	c := Config{}
	if c.trials(3, 10) != 3 {
		t.Error("quick default")
	}
	c.Full = true
	if c.trials(3, 10) != 10 {
		t.Error("full default")
	}
	c.Trials = 7
	if c.trials(3, 10) != 7 {
		t.Error("explicit override")
	}
}

func TestPctAndFms(t *testing.T) {
	if pct(1, 4) != "25.0%" {
		t.Errorf("pct = %s", pct(1, 4))
	}
	if pct(0, 0) != "n/a" {
		t.Errorf("pct zero den = %s", pct(0, 0))
	}
	if fms(35*time.Millisecond) != "35.0ms" {
		t.Errorf("fms = %s", fms(35*time.Millisecond))
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != len(registry) {
		t.Fatalf("Names() = %d entries", len(names))
	}
	for _, want := range []string{"table1", "table5", "figure2", "figure7", "topoyield", "ablation-mwu"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("registry missing %q", want)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus name resolved")
	}
	var buf bytes.Buffer
	if err := Run(&buf, "nope", Config{}); err == nil {
		t.Error("Run with bogus name should error")
	} else if !strings.Contains(err.Error(), "ablation-scale") {
		t.Errorf("unknown-name error does not list the opt-in experiments: %v", err)
	}
	// table2 is pure configuration — cheap enough to run in tests.
	if err := Run(&buf, "table2", Config{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "input/rate") {
		t.Error("table2 output missing grid rows")
	}
}

func TestDefaultGridMatchesTable2(t *testing.T) {
	g := DefaultGrid()
	if len(g.InputFactors) != 4 || g.InputFactors[0] != 1.5 {
		t.Errorf("input factors: %v", g.InputFactors)
	}
	if len(g.QueueFactors) != 3 || g.QueueFactors[0] != 0.5 {
		t.Errorf("queue factors: %v", g.QueueFactors)
	}
	if len(g.BgShares) != 3 {
		t.Errorf("bg shares: %v", g.BgShares)
	}
	if len(g.RTT2s) != 6 {
		t.Errorf("RTT2s: %v", g.RTT2s)
	}
	if len(g.UDPApps) != 5 {
		t.Errorf("UDP apps: %v", g.UDPApps)
	}
	if got := g.AllApps(); len(got) != 6 || got[0] != TCPBulkApp {
		t.Errorf("AllApps: %v", got)
	}
}

func TestCheapGenerators(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed generators")
	}
	// Smoke-run the cheaper simulation-backed generators at minimum scale
	// and check they produce sane reports.
	cfg := Config{Trials: 1, Seed: 3, Duration: 10 * time.Second}
	for _, name := range []string{"figure3", "figure4", "topoyield"} {
		g, ok := Lookup(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		r := g(cfg)
		if r.ID != name {
			t.Errorf("%s: ID = %q", name, r.ID)
		}
		if len(r.Tables) == 0 && len(r.Series) == 0 {
			t.Errorf("%s: empty report", name)
		}
		var buf bytes.Buffer
		r.Render(&buf)
		if buf.Len() == 0 {
			t.Errorf("%s: empty render", name)
		}
	}
}
