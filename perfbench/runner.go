package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// pass is the outcome of one timed loop.
type pass struct {
	lat       []float64 // milliseconds, successful operations only
	attempted int
	failed    int
	cancelled int
	wrong     []error
	heapMiB   float64
}

// loop runs w's operation back to back for d. With heapOps > 0 it also
// tracks the peak live heap over the first heapOps attempted operations: a
// fixed amount of work, so that the peak measures what the program retains
// per operation and not how many operations fitted into d.
func loop(e *env, w workload, r *run, d time.Duration, heapOps int) pass {
	var p pass
	var heap *heapSampler
	if heapOps > 0 {
		heap = startHeapSampler()
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		res := w.op(e, r)
		if res.wrong != nil {
			p.wrong = append(p.wrong, res.wrong)
		}
		switch res.out {
		case opCancelled:
			p.cancelled++
			continue
		case opFailed:
			p.failed++
		default:
			p.lat = append(p.lat, ms(res.lat))
		}
		p.attempted++
		if res.broken != nil {
			fmt.Printf("note: %v; going on with a freshly booted cluster\n", res.broken)
			if err := e.reboot(); err != nil {
				p.wrong = append(p.wrong, fmt.Errorf("reboot after %v: %w", res.broken, err))
			} else if err := w.start(e, r); err != nil {
				p.wrong = append(p.wrong, fmt.Errorf("restart after %v: %w", res.broken, err))
			}
		}
		if heap != nil && p.attempted == heapOps {
			p.heapMiB, heap = heap.finish(), nil
		}
		if len(p.wrong) > 0 {
			break // the program is wrong; timing it further means nothing
		}
	}
	if heap != nil {
		p.heapMiB = heap.finish()
		fmt.Printf("warning: %d operations attempted, fewer than the %d the heap peak covers\n", p.attempted, heapOps)
	}
	return p
}

// benchmark runs one workload for o.seconds and returns the report.
func benchmark(o options) (*result, error) {
	w, err := newWorkload(o.workload, o.seed, o.smoke)
	if err != nil {
		return nil, err
	}
	root, err := benchRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	setups, budget := 11, 2*time.Second
	if o.smoke {
		setups, budget = 1, 0
	}
	r := &run{layers: map[string][]float64{}}
	e, setup, err := setUp(root, w, r, setups, budget)
	if err != nil {
		return nil, err
	}
	defer e.shutdown()
	d := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metric{}}
	name := opName[o.workload]
	fmt.Printf("workload %s seed %d: %s\n", o.workload, o.seed, strings.Join(w.props(), ", "))

	if o.trace == 0 {
		p := loop(e, w, r, d, 0)
		if err := w.finish(e, r); err != nil {
			p.wrong = append(p.wrong, err)
		}
		report(res, p, r)
		s := summarize(p.lat, name.tailP)
		if s.N == 0 {
			return nil, fmt.Errorf("%s: no operation succeeded (%d attempted, %d failed, wrong: %v)",
				o.workload, p.attempted, p.failed, p.wrong)
		}
		fmt.Printf("%s %s.p50 = %.6g %s, %s.tail (p%g) = %.6g %s, n=%d, %d beyond the tail, max %.6g\n",
			o.workload, name.name, s.P50*name.scale, name.unit, name.name, s.TailP,
			s.Tail*name.scale, name.unit, s.N, s.Beyond, s.Max*name.scale)
		if p, ok := tailPercentile(s.N); !ok || p != s.TailP {
			fmt.Printf("warning: at n=%d the tail rule gives p%g (ok=%v), not the fixed p%g\n", s.N, p, ok, s.TailP)
		}
		fmt.Printf("%s ops_failed_ratio = %.4g (%d of %d), cancelled %d\n", o.workload,
			float64(p.failed)/float64(max(p.attempted, 1)), p.failed, p.attempted, p.cancelled)
		for i, v := range []float64{s.P50, s.Tail, setup} {
			res.Metrics[endToEnd[i].name] = metric{v, endToEnd[i].unit}
		}
		return res, nil
	}

	// Traced run: half the time untraced, half traced, on the same
	// cluster; the difference between the two medians is the tracing
	// overhead. The untraced half also takes the heap peak.
	plain := loop(e, w, &run{}, d/2, name.heapOps)
	r.layers["heap_peak_MiB"] = []float64{plain.heapMiB}
	r.tr = &tracer{}
	p := loop(e, w, r, d/2, 0)
	if err := w.finish(e, r); err != nil {
		p.wrong = append(p.wrong, err)
	}
	e.log.poll()
	if n := e.log.totalDropped(); n > 0 {
		return nil, fmt.Errorf("%s: event stores dropped %d records; event-derived phases are incomplete", o.workload, n)
	}
	e.shutdown() // before the layer drivers, which read process-wide counters
	plain.wrong = append(plain.wrong, p.wrong...)
	p.attempted += plain.attempted
	p.failed += plain.failed
	report(res, p, r)
	tp, up := median(p.lat), median(plain.lat)
	r.layers["trace.overhead_ms"] = []float64{tp - up}
	r.layers["trace.overhead_share"] = []float64{(tp - up) / up}
	fmt.Printf("%s traced %s.p50 = %.6g ms, untraced %.6g ms\n", o.workload, name.name, tp, up)
	fmt.Printf("%s ops_failed_ratio = %.4g (%d of %d)\n", o.workload,
		float64(p.failed)/float64(max(p.attempted, 1)), p.failed, p.attempted)

	// The event-derived phases of the other workloads come from short
	// traced passes of them, so every traced run reports every layer.
	for _, sp := range shortPasses {
		if sp.name == o.workload {
			continue
		}
		if err := shortPass(root, sp.name, sp.ops, o, r); err != nil {
			return nil, err
		}
	}
	if err := joinerProbe(root, o, r); err != nil {
		return nil, err
	}
	if err := layerDrivers(o, r); err != nil {
		return nil, err
	}
	if err := r.tr.write(filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))); err != nil {
		return nil, err
	}
	for _, n := range r.notes {
		fmt.Printf("note: %s\n", n)
	}
	return res, layerMetrics(res, r)
}

// endToEnd lists the metrics an untraced run reports. op_ms is the
// workload's operation: a job (ring, halo), a checkpoint (ckpt) or a
// recovery (recover).
var endToEnd = []layerMetric{
	{"op_ms.p50", "ms"}, {"op_ms.tail", "ms"}, {"setup_s", "s"},
}

// setUp boots w's cluster and readies w, at least setups times and until
// budget has been spent (at most maxSetups times), and keeps the last; it
// returns the median set-up time, since one set-up is too short and noisy
// to gate on.
func setUp(root string, w workload, r *run, setups int, budget time.Duration) (*env, float64, error) {
	var secs []float64
	var e *env
	start := time.Now()
	for i := 0; i < setups || (time.Since(start) < budget && i < maxSetups); i++ {
		if e != nil {
			e.shutdown()
		}
		t0 := time.Now()
		var err error
		if e, err = boot(root, w.nodes()); err != nil {
			return nil, 0, err
		}
		if err := w.start(e, r); err != nil {
			e.shutdown()
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return e, median(secs), nil
}

const maxSetups = 101

// shortPasses lists the workloads a traced run takes a few operations of,
// so that it measures every layer, and how many. recover-vm stands for the
// recover workloads: a restored ring can end with a wrong token (see
// README.md), which would fail the traced run of another workload.
var shortPasses = []struct {
	name string
	ops  int
}{{"ring", 8}, {"halo", 8}, {"ckpt", 8}, {"recover-vm", 4}}

// shortPass runs a few traced operations of another workload on its own
// cluster.
func shortPass(root, name string, ops int, o options, r *run) error {
	w, err := newWorkload(name, o.seed, o.smoke)
	if err != nil {
		return err
	}
	e, err := boot(root, w.nodes())
	if err != nil {
		return err
	}
	defer e.shutdown()
	if err := w.start(e, r); err != nil {
		return err
	}
	for i := 0; i < ops; i++ {
		if res := w.op(e, r); res.wrong != nil {
			return res.wrong
		}
	}
	if err := w.finish(e, r); err != nil {
		return err
	}
	e.log.poll()
	if n := e.log.totalDropped(); n > 0 {
		return fmt.Errorf("%s: event stores dropped %d records", name, n)
	}
	return nil
}

// report fills the fields every run reports.
func report(res *result, p pass, r *run) {
	res.Correct = len(p.wrong) == 0
	res.Attempted = p.attempted
	res.Failed = p.failed
	for _, err := range p.wrong {
		fmt.Printf("WRONG: %v\n", err)
	}
	for _, n := range r.notes {
		fmt.Printf("note: %s\n", n)
	}
	r.notes = nil
}
