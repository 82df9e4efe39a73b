// Command perfbench is Starfish's end-to-end benchmark. It boots the
// in-process fastnet cluster and drives one workload as jobs through the
// daemons, with one submitting goroutine in a closed loop:
//
//	ring     apps.Ring jobs (8 B lock-step token, 3 ranks), one after another
//	halo     a neighbour exchange of 64 KiB payloads over plain Send/Recv
//	ckpt     checkpoints of a VM job with a 1 MiB heap, 25% of it rewritten
//	         per epoch, in replicated memory through the delta pipeline
//	recover  node kills, one per ring job, each followed by a replacement node
//	recover-disk
//	         the same with the ring's checkpoints on the disk store
//	recover-vm
//	         node kills under a one-rank VM job with a 64 KiB heap, one job
//	         per episode, its checkpoints in replicated memory
//	recover-vm-disk
//	         the same with the VM job's checkpoints on the disk store
//	recover-delta
//	         the same under the ckpt VM program, restored from delta chains
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports per-layer metrics from spans recorded around each layer call and
// from the event stores' records. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it:
//
//	bash perfbench/run.sh --workload ring --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"starfish/internal/core"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "ring, halo, ckpt or recover")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: VM program, halo payloads, victim order")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs, for checking that every workload runs")
	flag.Parse()
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	res, err := benchmark(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
}

func newWorkload(name string, seed int64, smoke bool) (workload, error) {
	switch name {
	case "ring":
		return newRingLoad(smoke), nil
	case "halo":
		return newHaloLoad(seed, smoke), nil
	case "ckpt":
		return newCkptLoad(seed, smoke)
	case "recover":
		return newRecoverLoad(seed, smoke, core.StoreMemory), nil
	case "recover-disk":
		return newRecoverLoad(seed, smoke, core.StoreDisk), nil
	case "recover-vm":
		return newRecoverVMLoad(seed, smoke, vmRecovery{16, 4, 50_000, 150_000, core.StoreMemory, false, 1})
	case "recover-vm-disk":
		return newRecoverVMLoad(seed, smoke, vmRecovery{16, 4, 50_000, 150_000, core.StoreDisk, false, 1})
	case "recover-delta":
		return newRecoverVMLoad(seed, smoke, vmRecovery{vmPages, vmDirty, 15_000, 75_000, core.StoreMemory, true, 3})
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// workloadNames lists every workload, in report order.
var workloadNames = []string{"ring", "halo", "ckpt", "recover", "recover-disk", "recover-vm", "recover-vm-disk", "recover-delta"}

// opName is what each workload's timed operation is called in the
// human-readable report, with its unit scale, its fixed tail percentile
// (the highest with at least minBeyond samples beyond it at the sample
// count a run of BENCHMARK.json's run_seconds gathers), and how many
// operations the heap peak covers (well under what the untraced half of a
// slow traced run attempts).
var opName = map[string]struct {
	name    string
	unit    string
	scale   float64 // from milliseconds
	tailP   float64
	heapOps int
}{
	"ring":            {"job_s", "s", 1e-3, 95, 160},       // ~380 jobs in 40 s
	"halo":            {"job_s", "s", 1e-3, 95, 120},       // ~330 jobs
	"ckpt":            {"ckpt_commit_ms", "ms", 1, 99, 40}, // ~1300 checkpoints; 40 fit in the first job
	"recover":         {"recover_ms", "ms", 1, 90, 40},     // ~130 episodes
	"recover-disk":    {"recover_ms", "ms", 1, 90, 40},
	"recover-vm":      {"recover_ms", "ms", 1, 90, 60}, // ~200 episodes
	"recover-vm-disk": {"recover_ms", "ms", 1, 90, 60},
	"recover-delta":   {"recover_ms", "ms", 1, 75, 20}, // ~60 episodes
}
