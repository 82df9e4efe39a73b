package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"starfish/internal/evstore"
	"starfish/internal/wire"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-(rankOf(got, c.n)+1) < minBeyond {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond it", c.n, got, minBeyond)
		}
	}
}

func TestSummarizeCountsBeyondTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 40..1, unsorted input
	}
	s := summarize(xs, 75)
	if s.P50 != 20 || s.Tail != 30 || s.Beyond != 10 || s.Max != 40 {
		t.Errorf("summarize = %+v; want p50 20, p75 30, 10 beyond, max 40", s)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{ID: 1, Op: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Op: 1, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Op: 1, Parent: 1, Name: "b", Start: at(30), End: at(50)},  // overlaps a
		{ID: 4, Op: 1, Parent: 1, Name: "c", Start: at(90), End: at(120)}, // runs past root
		{ID: 5, Op: 1, Parent: 2, Name: "a.child", Start: at(15), End: at(20)},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{
		1: 100*time.Millisecond - 40*time.Millisecond - 10*time.Millisecond, // covered: [10,50) and [90,100)
		2: 25 * time.Millisecond,
		3: 20 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 5 * time.Millisecond,
	} {
		if self[id] != want {
			t.Errorf("self(%d) = %v, want %v", id, self[id], want)
		}
	}
}

// rec builds a canned record received ms milliseconds after the epoch.
func rec(ms int, component, kind string, app wire.AppID, rank int32, kv ...evstore.KV) evstore.Record {
	return evstore.Record{WriteTS: int64(ms) * int64(time.Millisecond), Component: component,
		Kind: kind, App: app, Rank: rank, KV: kv}
}

func TestRecoveryPhases(t *testing.T) {
	f := evstore.F
	const app = 7
	recs := []evstore.Record{
		rec(0, "proc", "checkpoint", app, 0), // before the kill: ignored
		rec(10, "cluster", "kill", 0, -1, f("target", 3)),
		rec(11, "cluster", "kill", 0, -1, f("target", 3)), // the fan-out copy on another node
		rec(40, "gossip", "suspect", 0, -1, f("target", 3)),
		rec(45, "gossip", "suspect", 0, -1, f("target", 3)),
		rec(115, "gossip", "confirm-dead", 0, -1, f("target", 3)),
		rec(116, "gcs", "view-change", 0, -1, f("members", "1,2,3")), // stale view
		rec(117, "gcs", "view-change", 0, -1, f("members", "1,2,4")),
		rec(118, "daemon", "restarting", app, -1, f("gen", 2)),
		rec(119, "daemon", "restarting", 99, -1, f("gen", 2)), // another app
		rec(119, "proc", "done", app, 0, f("err", "proc: aborted by daemon")),
		rec(120, "proc", "done", app, 1, f("err", "proc: aborted by daemon")),
		rec(121, "daemon", "running", app, -1, f("gen", 2)),
		rec(122, "proc", "restore", app, 0, f("index", 4)),
		rec(122, "proc", "restore", app, 1, f("index", 4)),
		rec(124, "proc", "restore", app, 2, f("index", 4)),
	}
	ph, err := recoveryPhases(recs, app, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"gossip.detect": 30, "gossip.confirm": 75, "gcs.view": 2, "daemon.restart": 1,
		"proc.abort": 2, "lwg.reform": 1, "proc.restore": 3,
	}
	var sum time.Duration
	for i, p := range ph {
		if p.name != recoveryPhaseNames[i] {
			t.Errorf("phase %d = %s, want %s", i, p.name, recoveryPhaseNames[i])
		}
		if p.dur() != want[p.name]*time.Millisecond {
			t.Errorf("%s = %v, want %vms", p.name, p.dur(), int64(want[p.name]))
		}
		sum += p.dur()
	}
	if sum != 114*time.Millisecond {
		t.Errorf("phases add up to %v, want the 114ms from kill to last restore", sum)
	}

	// A generation that never restores all ranks is not a finished
	// recovery.
	if _, err := recoveryPhases(recs[:len(recs)-1], app, 3, 3); err == nil {
		t.Error("missing the last rank's restore: want an error")
	}
}

func TestRecoveryPhasesClampOutOfOrderMilestones(t *testing.T) {
	f := evstore.F
	// The confirm-dead record of one node lands after the view change
	// another node already installed: the phases stay consecutive.
	recs := []evstore.Record{
		rec(0, "cluster", "kill", 0, -1, f("target", 2)),
		rec(30, "gossip", "suspect", 0, -1, f("target", 2)),
		rec(100, "gcs", "view-change", 0, -1, f("members", "1,3")),
		rec(105, "gossip", "confirm-dead", 0, -1, f("target", 2)),
		rec(106, "daemon", "restarting", 1, -1),
		rec(108, "daemon", "running", 1, -1),
		rec(110, "proc", "start", 1, 0),
	}
	ph, err := recoveryPhases(recs, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ph[2].name != "gcs.view" || ph[2].dur() != 0 {
		t.Errorf("gcs.view = %v, want 0 (clamped)", ph[2].dur())
	}
	if ph[4].dur() != 0 { // no aborted survivors: abort phase is empty
		t.Errorf("proc.abort = %v, want 0", ph[4].dur())
	}
	if total := ph[len(ph)-1].end.Sub(ph[0].start); total != 110*time.Millisecond {
		t.Errorf("total = %v, want 110ms", total)
	}
}

func TestRecoveryMetricsAverageEpisodesNearTheMedian(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	var spans []Span
	add := func(op int64, detect, restore int) {
		spans = append(spans,
			Span{Op: op, Name: "episode", Start: at(0), End: at(detect + restore)},
			Span{Op: op, Name: "gossip.detect", Start: at(0), End: at(detect)},
			Span{Op: op, Name: "proc.restore", Start: at(detect), End: at(detect + restore)})
	}
	for op := int64(1); op <= 10; op++ {
		add(op, 30+int(op%2), 70-int(op%2)) // 100 ms each
	}
	add(11, 900, 100) // an outlier the median episodes leave out
	m := recoveryMetrics(spans)
	if got := m["gossip.detect_ms"] + m["proc.restore_ms"]; math.Abs(got-100) > 1e-9 {
		t.Errorf("phases add up to %v ms; want the median episode's 100", got)
	}
	if d := m["gossip.detect_ms"]; d < 30 || d > 31 {
		t.Errorf("gossip.detect_ms = %v; want the near-median episodes' 30-31", d)
	}
	if s := m["recover.detect_share"]; s < 0.30 || s > 0.31 {
		t.Errorf("recover.detect_share = %v; want 0.30-0.31", s)
	}
}

func TestJobAndCheckpointPhases(t *testing.T) {
	f := evstore.F
	recs := []evstore.Record{
		rec(3, "daemon", "running", 5, -1),
		rec(4, "daemon", "running", 5, -1),
		rec(50, "proc", "done", 5, 1),
		rec(51, "proc", "done", 5, 0),
		rec(52, "daemon", "app-done", 5, -1),
		rec(60, "proc", "checkpoint", 6, 0, f("index", 2)),
		rec(61, "proc", "checkpoint", 6, 1, f("index", 3)),
		rec(62, "proc", "checkpoint", 6, 0, f("index", 3)),
		rec(64, "proc", "commit", 6, -1, f("line", 3)),
	}
	jp, err := jobPhases(recs, 5, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if jp[0].dur() != 3*time.Millisecond || jp[1].dur() != 47*time.Millisecond || jp[2].dur() != 2*time.Millisecond {
		t.Errorf("job phases = %v", jp)
	}
	cp, err := ckptPhases(recs, 6, 3, 2, time.Unix(0, int64(55*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	if cp[0].dur() != 7*time.Millisecond || cp[1].dur() != 2*time.Millisecond {
		t.Errorf("checkpoint phases = %v", cp)
	}
}

// brokenOnce is a workload whose second operation leaves the cluster in a
// state it cannot go on from.
type brokenOnce struct{ ops, starts int }

func (b *brokenOnce) nodes() int              { return 1 }
func (b *brokenOnce) start(*env, *run) error  { b.starts++; return nil }
func (b *brokenOnce) finish(*env, *run) error { return nil }
func (b *brokenOnce) props() []string         { return nil }
func (b *brokenOnce) op(e *env, r *run) opResult {
	b.ops++
	if b.ops == 2 {
		return opResult{out: opFailed, broken: errors.New("wedged")}
	}
	time.Sleep(time.Millisecond)
	return opResult{lat: time.Millisecond}
}

func TestLoopRebootsABrokenCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	e, err := boot(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.shutdown()
	first := e.s
	w := &brokenOnce{}
	p := loop(e, w, &run{}, 100*time.Millisecond, 0)
	if len(p.wrong) > 0 || p.failed != 1 || p.attempted < 3 || w.starts != 1 || e.s == first {
		t.Errorf("wrong %v, %d of %d failed, %d starts, rebooted %v; want the broken op failed, one fresh cluster started and the loop going on",
			p.wrong, p.failed, p.attempted, w.starts, e.s != first)
	}
}

// TestSmokeAllWorkloads runs every workload with tiny inputs, untraced and
// traced, and checks that each reports every metric it promises.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	// The benchmark's scratch files land under .bench_build in the working
	// directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := benchmark(options{workload: name, seed: 5, seconds: 1, smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("untraced: correct %v, %d attempted", res.Correct, res.Attempted)
			}
			// Every recover episode crashes a job submitted after the
			// last replacement joined, so none meets the joiner defect.
			if strings.HasPrefix(name, "recover") && res.Failed != 0 {
				t.Errorf("untraced: %d of %d episodes failed", res.Failed, res.Attempted)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 {
					t.Errorf("untraced %s = %+v", m.name, v)
				}
			}
		})
	}
	res, err := benchmark(options{workload: "recover", seed: 5, seconds: 1, trace: 1, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("traced run lacks %s", m.name)
		}
	}
	if _, err := os.Stat(".bench_build/trace/recover-seed5.json"); err != nil {
		t.Errorf("spans not written: %v", err)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workload and metric
// lists in step with what the benchmark runs and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []layerMetricJSON `json:"end_to_end"`
		PerLayer  []layerMetricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := opName[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the benchmark runs (%v)", w.Name, workloadNames)
		}
	}
	for _, c := range []struct {
		what string
		json []layerMetricJSON
		code []layerMetric
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.what, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.code {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					c.what, i, c.json[i].Name, c.json[i].Unit, m.name, m.unit)
			}
		}
	}
}

type layerMetricJSON struct{ Name, Unit string }
