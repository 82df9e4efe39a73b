package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"starfish/internal/ckpt"
	"starfish/internal/mpi"
	"starfish/internal/rstore"
	"starfish/internal/svm"
	"starfish/internal/vni"
	"starfish/internal/wire"
)

// Layer drivers call one layer's public API with the inputs the workloads
// use and time it with spans around each call. They run after the cluster
// passes have shut down, so process-wide counters (allocations, wire
// copies) see only the driver.

type layerMetric struct {
	name, unit string
}

// perLayer lists every per-layer metric a traced run reports, in report
// order. The arrow in each comment names the end-to-end metric and
// workload it should move.
var perLayer = []layerMetric{
	// -> job_s on ring (8 B) and halo (64 KiB)
	{"mpi.rt_us.8B", "us"}, {"mpi.self_us.8B", "us"}, {"vni.rt_us.8B", "us"},
	{"mpi.allocs_per_rt.8B", "count"}, {"mpi.alloc_B_per_rt.8B", "B"}, {"wire.copied_B_per_rt.8B", "B"},
	{"mpi.rt_us.64KiB", "us"}, {"mpi.self_us.64KiB", "us"}, {"vni.rt_us.64KiB", "us"},
	{"mpi.allocs_per_rt.64KiB", "count"}, {"mpi.alloc_B_per_rt.64KiB", "B"}, {"wire.copied_B_per_rt.64KiB", "B"},
	{"runtime.alloc_B_per_step.ring", "B"}, {"runtime.gc_per_kstep.ring", "count"},
	{"runtime.alloc_B_per_step.halo", "B"}, {"runtime.gc_per_kstep.halo", "count"},
	// -> job_s on ring
	{"daemon.launch_ms", "ms"}, {"proc.teardown_ms", "ms"},
	// -> ckpt_commit_ms on ckpt (and not recover_ms)
	{"svm.encode_image_ms", "ms"}, {"ckpt.encode_ms", "ms"}, {"ckpt.delta_ms", "ms"},
	{"ckpt.delta_hinted_ms", "ms"}, {"ckpt.pipeline_put_ms", "ms"}, {"ckpt.pipeline_self_ms", "ms"},
	{"rstore.put_record_ms", "ms"}, {"proc.capture_ms", "ms"}, {"proc.commit_ms", "ms"},
	{"ckpt.dirty_share", "ratio"}, {"ckpt.stored_B_per_epoch", "B"},
	{"rstore.replicated_B_per_epoch", "B"}, {"ckpt.hashed_per_changed_B", "ratio"},
	// -> recover_ms on recover
	{"gossip.detect_ms", "ms"}, {"gossip.confirm_ms", "ms"}, {"gcs.view_ms", "ms"},
	{"daemon.restart_ms", "ms"}, {"proc.abort_ms", "ms"}, {"lwg.reform_ms", "ms"},
	{"proc.restore_ms", "ms"}, {"rstore.fetch_ms", "ms"}, {"recover.detect_share", "ratio"},
	// -> recover_ms on recover once the joiner defect is fixed
	{"recover.joiner_ms", "ms"},
	// the traced workload itself
	{"heap_peak_MiB", "MiB"}, {"trace.overhead_ms", "ms"}, {"trace.overhead_share", "ratio"},
}

// spanMetrics maps per-layer metrics to the spans whose median duration
// they report.
var spanMetrics = map[string]string{
	"svm.encode_image_ms": "svm.encode_image", "ckpt.encode_ms": "ckpt.encode",
	"ckpt.delta_ms": "ckpt.delta", "ckpt.delta_hinted_ms": "ckpt.delta_hinted",
	"ckpt.pipeline_put_ms": "ckpt.pipeline_put", "rstore.put_record_ms": "rstore.put_record",
	"proc.capture_ms": "proc.capture", "proc.commit_ms": "proc.commit",
	"rstore.fetch_ms": "rstore.fetch",
}

// layerMetrics reduces the traced run's spans and samples to the
// per-layer metrics.
func layerMetrics(res *result, r *run) error {
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	vals := map[string][]float64{}
	for m, span := range spanMetrics {
		vals[m] = spanMs(spans, span)
	}
	// Launch and teardown are taken from ring jobs only, so the numbers do
	// not depend on which workload the run traces.
	vals["daemon.launch_ms"] = childMs(spans, "job.ring", "daemon.launch")
	vals["proc.teardown_ms"] = childMs(spans, "job.ring", "proc.teardown")
	vals["ckpt.pipeline_self_ms"] = selfMs(spans, self, "ckpt.pipeline_put")
	for m, v := range recoveryMetrics(spans) {
		vals[m] = []float64{v}
	}
	for m, v := range r.layers {
		vals[m] = v
	}
	for _, s := range []string{"8B", "64KiB"} {
		if rt, vrt := vals["mpi.rt_us."+s], vals["vni.rt_us."+s]; len(rt) > 0 && len(vrt) > 0 {
			vals["mpi.self_us."+s] = []float64{median(rt) - median(vrt)}
		}
	}
	res.Metrics = map[string]metric{}
	for _, m := range perLayer {
		v := vals[m.name]
		if len(v) == 0 {
			return fmt.Errorf("traced run measured no %s", m.name)
		}
		x := median(v)
		if strings.HasPrefix(m.name, "runtime.gc_per_kstep.") {
			x = mean(v) // most jobs see no GC at all; the mean is the rate
		}
		res.Metrics[m.name] = metric{x, m.unit}
	}
	var sum float64
	for _, n := range recoveryPhaseNames {
		sum += res.Metrics[n+"_ms"].Value
	}
	fmt.Printf("recovery phases add up to %.6g ms (mean of the %d episodes nearest the median)\n", sum, medianEpisodes)
	return nil
}

// medianEpisodes is how many recovery episodes, those whose length is
// nearest the median, the recovery phases are averaged over.
const medianEpisodes = 9

// recoveryMetrics returns each recovery phase's mean over the episodes
// whose length is nearest the median, and the share of those episodes
// spent detecting the failure (suspect plus confirm-dead). Means over one
// set of episodes add up to that set's mean length, which is within a
// fraction of a millisecond of the median episode; medians taken phase by
// phase would add up to no episode at all.
func recoveryMetrics(spans []Span) map[string]float64 {
	type episode struct {
		total  time.Duration
		phases map[string]time.Duration
	}
	byOp := map[int64]*episode{}
	get := func(op int64) *episode {
		if byOp[op] == nil {
			byOp[op] = &episode{phases: map[string]time.Duration{}}
		}
		return byOp[op]
	}
	isPhase := map[string]bool{}
	for _, n := range recoveryPhaseNames {
		isPhase[n] = true
	}
	for _, s := range spans {
		switch {
		case s.Name == "episode":
			get(s.Op).total = s.dur()
		case isPhase[s.Name]:
			get(s.Op).phases[s.Name] += s.dur()
		}
	}
	var eps []*episode
	var totals []float64
	for _, e := range byOp {
		if e.total > 0 {
			eps = append(eps, e)
			totals = append(totals, ms(e.total))
		}
	}
	if len(eps) == 0 {
		return nil
	}
	med := median(totals)
	sort.Slice(eps, func(i, j int) bool {
		return math.Abs(ms(eps[i].total)-med) < math.Abs(ms(eps[j].total)-med)
	})
	eps = eps[:min(medianEpisodes, len(eps))]
	out := map[string]float64{}
	var total, detect time.Duration
	for _, e := range eps {
		total += e.total
		detect += e.phases["gossip.detect"] + e.phases["gossip.confirm"]
		for n, d := range e.phases {
			out[n+"_ms"] += ms(d) / float64(len(eps))
		}
	}
	out["recover.detect_share"] = float64(detect) / float64(total)
	return out
}

// layerDrivers runs every driver.
func layerDrivers(o options, r *run) error {
	for _, size := range []int{8, 64 << 10} {
		if err := mpiDriver(r, size, o.smoke); err != nil {
			return err
		}
		if err := vniDriver(r, size, o.smoke); err != nil {
			return err
		}
	}
	if err := ckptDriver(o, r); err != nil {
		return err
	}
	return fetchDriver(o, r)
}

func sizeLabel(size int) string {
	if size >= 1<<10 {
		return fmt.Sprintf("%dKiB", size>>10)
	}
	return fmt.Sprintf("%dB", size)
}

// rtBatches returns how many round trips a batch takes and how many
// batches a driver times.
func rtBatches(size int, smoke bool) (int, int) {
	if smoke {
		return 50, 2
	}
	if size >= 1<<10 {
		return 1000, 7
	}
	return 10000, 7
}

// mpiDriver times round trips between a 2-rank mpi.New pair over vni.NIC
// on fastnet, through the plain Send/Recv API the applications use.
func mpiDriver(r *run, size int, smoke bool) error {
	label := sizeLabel(size)
	fn := vni.NewFastnet(0)
	var nics [2]*vni.NIC
	addrs := map[wire.Rank]string{}
	for i := range nics {
		nic, err := vni.NewNIC(fn, fmt.Sprintf("pb-mpi-%s-%d", label, i), 0)
		if err != nil {
			return err
		}
		defer nic.Close()
		nics[i] = nic
		addrs[wire.Rank(i)] = nic.Addr()
	}
	var comms [2]*mpi.Comm
	for i := range comms {
		c, err := mpi.New(mpi.Config{App: 1, Rank: wire.Rank(i), Size: 2, NIC: nics[i], Addrs: addrs})
		if err != nil {
			return err
		}
		comms[i] = c
	}
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			data, _, err := comms[1].Recv(0, 0)
			if err != nil {
				return
			}
			if err := comms[1].Send(0, 0, data); err != nil {
				return
			}
		}
	}()
	defer func() {
		comms[1].Close()
		<-echoed
		comms[0].Close()
	}()
	buf := make([]byte, size)
	rt := func() error {
		if err := comms[0].Send(1, 0, buf); err != nil {
			return err
		}
		_, _, err := comms[0].Recv(1, 0)
		return err
	}
	n, batches := rtBatches(size, smoke)
	for i := 0; i < n/10; i++ { // warm-up: connections, pools
		if err := rt(); err != nil {
			return err
		}
	}
	for b := 0; b < batches; b++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := wire.CopiedBytes()
		op := r.tr.newOp()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := rt(); err != nil {
				return err
			}
		}
		t1 := time.Now()
		c1 := wire.CopiedBytes()
		runtime.ReadMemStats(&m1)
		r.tr.add(op, 0, "mpi.rt."+label, t0, t1)
		r.note("mpi.rt_us."+label, t1.Sub(t0).Seconds()*1e6/float64(n))
		r.note("mpi.allocs_per_rt."+label, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		r.note("mpi.alloc_B_per_rt."+label, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
		r.note("wire.copied_B_per_rt."+label, float64(c1-c0)/float64(n))
	}
	return nil
}

// vniDriver times round trips of pooled messages between two vni.NICs on
// fastnet: the transport below mpi, with payload ownership moving through
// it as it does under mpi.
func vniDriver(r *run, size int, smoke bool) error {
	label := sizeLabel(size)
	fn := vni.NewFastnet(0)
	a, err := vni.NewNIC(fn, "pb-vni-a-"+label, 0)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := vni.NewNIC(fn, "pb-vni-b-"+label, 0)
	if err != nil {
		return err
	}
	defer b.Close()
	stop := make(chan struct{})
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			select {
			case m := <-b.Queue():
				if err := b.Send(a.Addr(), &m); err != nil {
					m.Release()
					return
				}
			case <-stop:
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-echoed
	}()
	m := wire.Msg{Type: wire.TData, Payload: wire.GetBuf(size), Pooled: true}
	rt := func() error {
		if err := a.Send(b.Addr(), &m); err != nil {
			return err
		}
		m = <-a.Queue()
		return nil
	}
	defer m.Release()
	n, batches := rtBatches(size, smoke)
	for i := 0; i < n/10; i++ {
		if err := rt(); err != nil {
			return err
		}
	}
	for bt := 0; bt < batches; bt++ {
		op := r.tr.newOp()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := rt(); err != nil {
				return err
			}
		}
		t1 := time.Now()
		r.tr.add(op, 0, "vni.rt."+label, t0, t1)
		r.note("vni.rt_us."+label, t1.Sub(t0).Seconds()*1e6/float64(n))
	}
	return nil
}

// timedBackend wraps the replicated store so the pipeline's PutRecord
// calls get their own spans.
type timedBackend struct {
	*rstore.Store
	r      *run
	op, at int64
}

func (t *timedBackend) PutRecord(app wire.AppID, rank wire.Rank, n uint64, env []byte, blocks []ckpt.RecBlock, meta *ckpt.Meta) error {
	t0 := time.Now()
	err := t.Store.PutRecord(app, rank, n, env, blocks, meta)
	t.r.tr.add(t.op, t.at, "rstore.put_record", t0, time.Now())
	return err
}

// rstorePair starts two replicated stores (k=2) on a fresh fastnet.
func rstorePair(tag string) (*rstore.Store, *rstore.Store, error) {
	fn := vni.NewFastnet(0)
	addr := func(id wire.NodeID) string { return fmt.Sprintf("pb-rs-%s-n%d", tag, id) }
	var stores []*rstore.Store
	for id := wire.NodeID(1); id <= 2; id++ {
		s, err := rstore.New(rstore.Config{Node: id, Transport: fn, Addr: addr(id), PeerAddr: addr, Replicas: 2})
		if err != nil {
			for _, s := range stores {
				s.Close()
			}
			return nil, nil, err
		}
		stores = append(stores, s)
	}
	for _, s := range stores {
		s.UpdateView([]wire.NodeID{1, 2})
	}
	return stores[0], stores[1], nil
}

// ckptDriver runs the ckpt workload's VM program in a plain VM and takes
// epochs of its image through each checkpoint layer in turn: VM image
// encoding, the portable encoder, full and dirty-hinted delta computation,
// and the delta pipeline into replicated memory.
func ckptDriver(o options, r *run) error {
	pages, dirty, epochs := vmPages, vmDirty, 24
	if o.smoke {
		pages, dirty, epochs = 16, 4, 4
	}
	prog := genVMProgram(o.seed, pages, dirty)
	code, err := svm.Assemble(prog.src)
	if err != nil {
		return err
	}
	vm := svm.New(vmArch, code, vmGlobals)
	copy(vm.Globals, prog.globals(0, 1<<30, -1)) // more sweeps than the driver runs
	sweepTo := func(j int64) error {
		for vm.Globals[0] < j {
			if _, err := vm.RunSteps(prog.sweepInstrs); err != nil { // one Step, as in the job
				return err
			}
		}
		return nil
	}
	if err := sweepTo(2); err != nil { // past the fill
		return err
	}
	writer, peer, err := rstorePair("ckpt")
	if err != nil {
		return err
	}
	defer peer.Close()
	defer writer.Close()
	tb := &timedBackend{Store: writer, r: r}
	pipe := ckpt.NewPipeline(tb, 0)
	enc := &ckpt.PortableEncoder{}
	vm.TrackDirty()
	prev := vm.EncodeImage()
	vm.ResetDirty()
	prevEnc, err := enc.Encode(prev, vmArch)
	if err != nil {
		return err
	}
	if err := pipe.Put(1, 0, 1, prevEnc, nil); err != nil {
		return err
	}
	for ep := 0; ep < epochs; ep++ {
		if err := sweepTo(vm.Globals[0] + 16); err != nil {
			return err
		}
		var hints []ckpt.ByteSpan
		for _, s := range vm.DirtyByteSpans() {
			hints = append(hints, ckpt.ByteSpan{Off: s.Off, Len: s.Len})
		}
		op := r.tr.newOp()
		t0 := time.Now()
		root := r.tr.begin(op, 0, "ckpt.epoch", t0)
		img := vm.EncodeImage()
		t1 := time.Now()
		vm.ResetDirty()
		encImg, err := enc.Encode(img, vmArch)
		t2 := time.Now()
		if err != nil {
			return err
		}
		full := ckpt.ComputeDelta(prev, img)
		t3 := time.Now()
		hinted := ckpt.ComputeDeltaHinted(prev, img, hints)
		t4 := time.Now()
		if len(full.Blocks) != len(hinted.Blocks) {
			return fmt.Errorf("ckpt driver: hinted delta has %d blocks, full diff %d", len(hinted.Blocks), len(full.Blocks))
		}
		rep0 := writer.Stats().BytesReplicated
		t5 := time.Now()
		tb.op, tb.at = op, r.tr.begin(op, root, "ckpt.pipeline_put", t5)
		if err := pipe.Put(1, 0, uint64(ep+2), encImg, nil); err != nil {
			return err
		}
		t6 := time.Now()
		r.tr.end(tb.at, t6)
		r.tr.end(root, t6)
		r.tr.add(op, root, "svm.encode_image", t0, t1)
		r.tr.add(op, root, "ckpt.encode", t1, t2)
		r.tr.add(op, root, "ckpt.delta", t2, t3)
		r.tr.add(op, root, "ckpt.delta_hinted", t3, t4)
		changed := 0
		for _, b := range full.Blocks {
			changed += len(b)
		}
		nBlocks := (len(img) + ckpt.DeltaBlockSize - 1) / ckpt.DeltaBlockSize
		r.note("ckpt.dirty_share", float64(len(full.Blocks))/float64(nBlocks))
		r.note("ckpt.hashed_per_changed_B", float64(len(encImg))/float64(max(changed, 1)))
		r.note("rstore.replicated_B_per_epoch", float64(writer.Stats().BytesReplicated-rep0))
		prev = img
	}
	return nil
}

// fetchDriver times a peer fetch from replicated memory at the recover
// workload's image size (a ring rank's portable checkpoint image).
func fetchDriver(o options, r *run) error {
	writer, reader, err := rstorePair("fetch")
	if err != nil {
		return err
	}
	defer reader.Close()
	defer writer.Close()
	img, err := (&ckpt.PortableEncoder{}).Encode(make([]byte, 64), vmArch)
	if err != nil {
		return err
	}
	if err := writer.Put(1, 0, 1, img, nil); err != nil {
		return err
	}
	reps := 40
	if o.smoke {
		reps = 3
	}
	for i := 0; i < reps; i++ {
		reader.Evict(1, 0, 1)
		op := r.tr.newOp()
		t0 := time.Now()
		got, _, err := reader.Get(1, 0, 1)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if len(got) != len(img) {
			return fmt.Errorf("fetch driver: fetched %d B, stored %d", len(got), len(img))
		}
		r.tr.add(op, 0, "rstore.fetch", t0, t1)
	}
	return nil
}
