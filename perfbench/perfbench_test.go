package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// small returns the named workload with its per-round work cut down so a
// test runs in seconds; the shape of each round stays the same.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.cycles, w.backlog, w.tail = 4, 60, 60
	return w
}

func oneRound(t *testing.T, w workload, seed int64) *sample {
	t.Helper()
	s := newSample(1)
	r, err := newRound(&w, seed, s, nil, newCollector())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	if s.violationCount != 0 {
		t.Fatalf("%s: %d violations: %v", w.name, s.violationCount, s.violations)
	}
	return s
}

// repeatable is every metric that must not depend on the host: counts and,
// with sim set, simulated times. Allocation counts are left out; they
// belong to the Go runtime, not to the engine. A parallel restart keeps
// every count but not the simulated interleaving (recovery.Config
// RecoveryWorkers), so its simulated times are left out too.
func repeatable(s *sample, sim bool) map[string]float64 {
	out := map[string]float64{}
	for name, m := range s.perLayer() {
		if (m.Unit == "count" && !strings.HasPrefix(name, "txn.alloc")) ||
			(sim && strings.HasPrefix(name, "recovery.phase_sim_us.")) {
			out[name] = m.Value
		}
	}
	out["success_share"] = s.endToEnd()["success_share"].Value
	if sim {
		out["sim_us_per_txn"] = s.endToEnd()["sim_us_per_txn"].Value
		out["sim_mttr_us"] = s.endToEnd()["sim_mttr_us"].Value
	}
	return out
}

// TestSameSeedSameCounts runs each workload twice with one seed: every
// count, and every simulated time of a sequential restart, must repeat bit
// for bit, or something nondeterministic has leaked into the benchmark or the
// engine.
func TestSameSeedSameCounts(t *testing.T) {
	for _, name := range []string{"oltp-partitioned", "crash-selective-redo", "crash-redo-all", "crash-selective-redo-par"} {
		w := small(t, name)
		sim := w.recoveryWorkers() <= 1
		a, b := repeatable(oneRound(t, w, 7), sim), repeatable(oneRound(t, w, 7), sim)
		for k, v := range a {
			if b[k] != v {
				t.Errorf("%s: %s = %v then %v", name, k, v, b[k])
			}
		}
		if a["recovery.crashed_log_records"] == 0 || a["wal.records_per_txn"] == 0 {
			t.Errorf("%s: no work measured: %v", name, a)
		}
	}
}

// TestSeedChangesInputs guards against a seed that is ignored.
func TestSeedChangesInputs(t *testing.T) {
	w := small(t, "crash-selective-redo")
	a, b := repeatable(oneRound(t, w, 7), true), repeatable(oneRound(t, w, 8), true)
	if a["sim_us_per_txn"] == b["sim_us_per_txn"] && a["wal.records_per_txn"] == b["wal.records_per_txn"] {
		t.Fatalf("seeds 7 and 8 measured the same work: %v", a)
	}
}

// TestWrongValueIsCaught corrupts the shadow copy: the read checks and the
// read-back must report it.
func TestWrongValueIsCaught(t *testing.T) {
	w := small(t, "crash-selective-redo")
	s := newSample(1)
	r, err := newRound(&w, 7, s, nil, newCollector())
	if err != nil {
		t.Fatal(err)
	}
	r.shadow[len(r.shadow)-1][0] ^= 0xff
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	if s.violationCount == 0 {
		t.Fatal("a record differing from the shadow copy went unreported")
	}
}

// TestMetricsMatchBenchmarkJSON runs both modes and checks that each prints
// exactly the metrics BENCHMARK.json declares, with the declared units, and
// that the traced run's ledger explains its time.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, ok := findWorkload(wl.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
	}
	w := small(t, "crash-selective-redo")
	for _, c := range []struct {
		traced bool
		want   []decl
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		res, _, err := measure(w, 3, 200*time.Millisecond, c.traced)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("traced=%v: %+v", c.traced, res)
		}
		var got, want []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, d := range c.want {
			want = append(want, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("traced=%v: program prints\n%s\nBENCHMARK.json declares\n%s",
				c.traced, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
