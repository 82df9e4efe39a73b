package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"starfish/internal/core"
)

// env is one booted in-process cluster plus the benchmark's view of its
// event stores.
type env struct {
	s    *core.Starfish
	log  *eventLog
	root string
	dir  string
	n    int // nodes booted
	down bool
}

// boot starts an n-node fastnet cluster and waits for the full view. Its
// checkpoint-store directory lives under root.
func boot(root string, n int) (*env, error) {
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	s, err := core.New(core.Options{Nodes: n, StoreDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("boot %d nodes: %w", n, err)
	}
	if err := s.WaitView(n, 20*time.Second); err != nil {
		s.Shutdown()
		os.RemoveAll(dir)
		return nil, err
	}
	return &env{s: s, log: newEventLog(s.Cluster()), root: root, dir: dir, n: n}, nil
}

// reboot replaces the cluster with a freshly booted one of the same size.
func (e *env) reboot() error {
	e.shutdown()
	f, err := boot(e.root, e.n)
	if err != nil {
		return err
	}
	*e = *f
	return nil
}

// shutdown stops the cluster and removes its store; later calls do
// nothing.
func (e *env) shutdown() {
	if e.down {
		return
	}
	e.down = true
	e.s.Shutdown()
	os.RemoveAll(e.dir)
}

// heapSampler tracks the peak live Go heap (as marked by the last
// completed GC cycle) while it runs. The live heap is what the program
// retains; the heap including unswept garbage mostly measures where the GC
// pacer happened to be.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampling goroutine; read after done closes
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, forces a GC so that the live heap is read
// exactly at this point instead of at whichever cycle last ran, and
// returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	return float64(max(h.peak, sample[0].Value.Uint64())) / (1 << 20)
}

// readMem reads the process-wide bytes allocated and GC cycles completed
// (traced runs only: ReadMemStats stops the world).
func readMem() (uint64, uint32) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.NumGC
}

// benchRoot is where a run keeps its scratch files: inside the checkout,
// under the ignored build directory.
func benchRoot() (string, error) {
	root := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	return root, os.MkdirAll(root, 0o755)
}
