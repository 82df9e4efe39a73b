package main

import (
	"fmt"
	"math/rand"
	"time"

	"starfish/internal/apps"
	"starfish/internal/ckpt"
	"starfish/internal/core"
	"starfish/internal/proc"
	"starfish/internal/wire"
)

// outcome classifies one timed operation.
type outcome int

const (
	opOK outcome = iota
	// opFailed: the operation missed its bound or could not be issued.
	opFailed
	// opCancelled: the job ended under an in-flight operation; it is not
	// counted as attempted.
	opCancelled
)

type opResult struct {
	lat time.Duration
	out outcome
	// wrong is set when the program's output was checked and found wrong.
	wrong error
	// broken is set when the cluster is left in a state the workload
	// cannot go on from (a step outside the timed operation failed); the
	// runner boots a fresh cluster and the operation counts as failed.
	broken error
}

// run carries what every operation of one benchmark run shares.
type run struct {
	tr     *tracer              // nil in untraced runs
	layers map[string][]float64 // per-layer samples (traced runs)
	notes  []string             // one-line remarks printed with the report
}

func (r *run) note(name string, v float64) {
	if r.tr != nil {
		r.layers[name] = append(r.layers[name], v)
	}
}

func (r *run) remark(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one closed-loop workload: one submitting goroutine issues an
// operation, waits for it, and issues the next.
type workload interface {
	// nodes is the cluster size the workload boots.
	nodes() int
	// start readies a booted cluster for the timed loop (long-lived jobs,
	// warm-up operations).
	start(e *env, r *run) error
	// op performs one timed operation.
	op(e *env, r *run) opResult
	// finish ends the run's jobs and checks their outputs.
	finish(e *env, r *run) error
	// props lists the input properties the report records.
	props() []string
}

// waitFor blocks until pred holds or the timeout expires, waking on
// cluster and daemon state changes instead of polling.
func waitFor(e *env, timeout time.Duration, pred func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		cch := e.s.Cluster().Changed()
		var dch <-chan struct{}
		if d := e.s.Cluster().AnyDaemon(); d != nil {
			dch = d.Changed()
		}
		if pred() {
			return true
		}
		left := time.Until(deadline)
		if left <= 0 {
			return false
		}
		t := time.NewTimer(min(left, 20*time.Millisecond))
		select {
		case <-cch:
		case <-dch:
		case <-t.C:
		}
		t.Stop()
	}
}

// ---- ring and halo: one job after another ----

// jobBound is how long a ring or halo job may take before it counts as
// failed (a healthy job takes a fraction of a second).
const jobBound = 10 * time.Second

// jobLoad runs a self-checking application as back-to-back jobs.
type jobLoad struct {
	tag   string // per-layer metric suffix
	app   string // registered application name
	args  []byte
	ranks int
	steps float64 // rank-steps per job
	prop  []string
	next  core.AppID
}

func newRingLoad(smoke bool) *jobLoad {
	rounds := int64(20000)
	if smoke {
		rounds = 200
	}
	return &jobLoad{
		tag: "ring", app: apps.RingName, args: apps.RingArgs(rounds), ranks: 3,
		steps: float64(rounds * 3),
		prop: []string{"ranks=3", "cores=2", "msg_B=8", fmt.Sprintf("rounds_per_job=%d", rounds),
			"checkpoints=none", "seeded_input=none (deterministic token)"},
	}
}

func newHaloLoad(seed int64, smoke bool) *jobLoad {
	rounds, size := int64(1200), haloSize
	if smoke {
		rounds = 20
	}
	return &jobLoad{
		tag: "halo", app: haloName, args: haloArgs(seed, rounds, size), ranks: 2,
		steps: float64(rounds * 2),
		prop: []string{"ranks=2 (compute-bound: copy and check 256 KiB a round)", "cores=2", fmt.Sprintf("msg_B=%d", size),
			fmt.Sprintf("rounds_per_job=%d", rounds), "exchange=both neighbours of a periodic 1-D grid",
			"checkpoints=none", "seeded_input=payload bytes"},
	}
}

func (w *jobLoad) nodes() int      { return w.ranks }
func (w *jobLoad) props() []string { return w.prop }

func (w *jobLoad) start(e *env, r *run) error {
	res := w.op(e, &run{}) // warm-up, untraced
	if res.wrong != nil {
		return res.wrong
	}
	if res.out != opOK {
		return fmt.Errorf("%s: warm-up job failed", w.tag)
	}
	return nil
}

func (w *jobLoad) op(e *env, r *run) opResult {
	w.next++
	id := w.next
	var a0 uint64
	var g0 uint32
	if r.tr != nil {
		a0, g0 = readMem()
	}
	t0 := time.Now()
	info, err := func() (core.Status, error) {
		if err := e.s.Submit(core.Job{ID: id, Name: w.app, Args: w.args, Ranks: w.ranks}); err != nil {
			return core.Status{}, err
		}
		return e.s.Wait(id, jobBound)
	}()
	t1 := time.Now()
	if r.tr != nil {
		a1, g1 := readMem()
		r.note("runtime.alloc_B_per_step."+w.tag, float64(a1-a0)/w.steps)
		r.note("runtime.gc_per_kstep."+w.tag, float64(g1-g0)*1000/w.steps)
	}
	switch {
	case err != nil:
		e.s.Delete(id)
		r.remark("%s job %d: %v", w.tag, id, err)
		return opResult{out: opFailed}
	case info.Status != core.StatusDone:
		return opResult{out: opFailed, wrong: fmt.Errorf("%s job %d: %v: %s", w.tag, id, info.Status, info.Failure)}
	}
	if r.tr != nil {
		op := r.tr.newOp()
		root := r.tr.add(op, 0, "job."+w.tag, t0, t1)
		e.log.poll()
		if ph, err := jobPhases(e.log.since(t0), id, t0); err == nil {
			for _, p := range ph {
				r.tr.add(op, root, p.name, p.start, p.end)
			}
		} else {
			r.remark("%v", err)
		}
		e.log.trim(t1)
	}
	return opResult{lat: t1.Sub(t0)}
}

func (w *jobLoad) finish(*env, *run) error { return nil }

// ---- recover: kill a rank's node, time the restart, add a replacement ----

// episodeBound is how long one recovery may take before the episode
// counts as failed and the job is deleted. Healthy episodes take about a
// tenth of it; the margin keeps a host that steals CPU time from failing
// episodes that did recover.
const episodeBound = time.Second

// recoverLoad runs one episode per job: it submits a short self-checking
// job on the full cluster, crashes a node that hosts a rank once a
// checkpoint has committed, times the restart, lets the restored job run
// to its check, and adds a replacement node (§3.1.2's growth step). Every
// node has joined before the job it crashes is submitted, so the episodes
// time recovery and not the joiner defect, which joinerProbe measures.
type recoverLoad struct {
	rng *rand.Rand
	id  core.AppID
	// job is the self-checking job each episode crashes.
	job  core.Job
	prop []string
	// line is the last committed checkpoint index seen.
	line uint64
	// killAt is the committed checkpoint index a job reaches before its
	// kill.
	killAt uint64
}

const recoverNodes = 4

// newRecoverLoad crashes a ring that checkpoints opaque images to store:
// replicated daemon memory (recover) or the shared disk store
// (recover-disk).
func newRecoverLoad(seed int64, smoke bool, store ckpt.StoreKind) *recoverLoad {
	rounds := int64(recoverRounds)
	if smoke {
		rounds = 10_000
	}
	const every = 2000
	where := "memory k=2"
	if store == core.StoreDisk {
		where = "disk"
	}
	return &recoverLoad{
		rng: rand.New(rand.NewSource(seed)),
		job: core.Job{Name: apps.RingName, Args: apps.RingArgs(rounds), Ranks: 3,
			CheckpointEverySteps: every, Store: store},
		killAt: 1,
		prop: []string{"ranks=3", "cores=2", fmt.Sprintf("nodes=%d", recoverNodes), "msg_B=8",
			"store=" + where + " opaque images", fmt.Sprintf("ckpt_every_steps=%d", every),
			fmt.Sprintf("rounds_per_job=%d (one episode)", rounds), "seeded_input=victim order",
			fmt.Sprintf("episode_bound_ms=%d", episodeBound.Milliseconds())},
	}
}

// recoverRounds is the length of one episode's ring: the kill lands at
// its first committed line, and the restored ring then runs the rest
// (about a fifth of a second) before it checks its token.
const recoverRounds = 30_000

// vmRecovery sizes a recover workload over the ckpt workload's one-rank
// VM program: a restart restores no channel state and aborts no
// surviving rank.
type vmRecovery struct {
	pages, dirty int
	every        uint64 // sweeps between checkpoints
	sweeps       int64  // per job
	store        ckpt.StoreKind
	delta        bool
	killAt       uint64
}

// newRecoverVMLoad crashes the VM program once line killAt has committed.
// The program's checksum, compared with the plain baseline run when each
// job completes, checks every restored image. recover-delta checkpoints a
// 1 MiB heap through the delta pipeline and is killed once a full record
// and two deltas have committed, so each restart resolves a delta chain;
// recover-vm and recover-vm-disk checkpoint a 64 KiB heap as opaque images
// into replicated memory or onto the disk store.
func newRecoverVMLoad(seed int64, smoke bool, c vmRecovery) (*recoverLoad, error) {
	sweeps := c.sweeps
	if smoke {
		c.pages, c.dirty = 16, 4
	}
	prog := genVMProgram(seed, c.pages, c.dirty)
	if err := prog.baseline(sweeps); err != nil {
		return nil, err
	}
	vm := &proc.VMApp{
		StepSlice: prog.sweepInstrs, NGlobals: vmGlobals, Source: prog.src,
		Globals: prog.globals(0, sweeps, prog.checksum),
	}
	where := "memory k=2"
	if c.store == core.StoreDisk {
		where = "disk"
	}
	images := "opaque images"
	if c.delta {
		images = "delta (full every 8)"
	}
	return &recoverLoad{
		rng: rand.New(rand.NewSource(seed)),
		job: core.Job{Name: proc.VMAppName, Args: proc.EncodeVMApp(vm), Ranks: 1,
			CheckpointEverySteps: c.every, Store: c.store, Delta: c.delta},
		killAt: c.killAt,
		prop: []string{"ranks=1 (compute-bound VM)", "cores=2", fmt.Sprintf("nodes=%d", recoverNodes),
			fmt.Sprintf("heap_B=%d", prog.heapWords*4),
			fmt.Sprintf("dirty_pages=%d/%d per sweep", len(prog.dirtyPages), prog.heapWords/vmPageWords),
			"store=" + where + " " + images, fmt.Sprintf("ckpt_every_steps=%d", c.every),
			fmt.Sprintf("kill_at_line=%d", c.killAt),
			fmt.Sprintf("sweeps_per_job=%d (one episode)", sweeps), "seeded_input=VM constants, dirty-page pattern",
			fmt.Sprintf("episode_bound_ms=%d", episodeBound.Milliseconds())},
	}, nil
}

func (w *recoverLoad) nodes() int      { return recoverNodes }
func (w *recoverLoad) props() []string { return w.prop }

func (w *recoverLoad) submit(e *env) error {
	w.id++
	job := w.job
	job.ID = w.id
	if err := e.s.Submit(job); err != nil {
		return err
	}
	for w.line = 0; w.line < w.killAt; {
		if err := w.awaitCheckpoint(e); err != nil {
			return err
		}
	}
	return nil
}

// awaitCheckpoint waits for a committed line newer than w.line, so the
// next crash has a fresh recovery line to restart from.
func (w *recoverLoad) awaitCheckpoint(e *env) error {
	ok := waitFor(e, 10*time.Second, func() bool {
		line, err := e.s.CommittedLine(w.id)
		if err != nil || line[0] <= w.line {
			return false
		}
		w.line = line[0]
		return true
	})
	if !ok {
		return fmt.Errorf("recover: app %d committed no checkpoint past %d", w.id, w.line)
	}
	return nil
}

// grow adds a replacement node and waits until every node sees the full
// view again.
func (w *recoverLoad) grow(e *env) error {
	if _, err := e.s.AddNode(); err != nil {
		return err
	}
	return e.s.WaitView(recoverNodes, 10*time.Second)
}

func (w *recoverLoad) start(e *env, r *run) error { return w.submit(e) }

// kill crashes the node of a seeded rank of the running job and waits up
// to bound for every rank of the next generation to be restored. It
// returns the recovery phases (nil if the job did not recover in time).
func (w *recoverLoad) kill(e *env, info core.Status, bound time.Duration) (wire.NodeID, []phase, error) {
	victim := info.Placement[wire.Rank(w.rng.Intn(w.job.Ranks))]
	e.log.poll() // the victim's store closes with it
	t0 := time.Now()
	if err := e.s.Crash(victim); err != nil {
		return victim, nil, err
	}
	var phases []phase
	recovered := waitFor(e, bound, func() bool {
		cur, ok := e.s.Status(w.id)
		if !ok || cur.Gen <= info.Gen || cur.Status != core.StatusRunning {
			return false
		}
		e.log.poll()
		ph, err := recoveryPhases(e.log.since(t0), w.id, victim, w.job.Ranks)
		phases = ph
		return err == nil
	})
	e.log.trim(t0)
	if !recovered {
		return victim, nil, nil
	}
	return victim, phases, nil
}

// running returns the status of the job the next kill crashes.
func (w *recoverLoad) running(e *env) (core.Status, error) {
	info, ok := e.s.Status(w.id)
	if !ok || info.Status != core.StatusRunning {
		return info, fmt.Errorf("recover: app %d not running before the kill (%v)", w.id, info.Status)
	}
	return info, nil
}

func (w *recoverLoad) op(e *env, r *run) opResult {
	info, ok := e.s.Status(w.id)
	switch {
	case ok && info.Status == core.StatusDone:
		// The job ended between its checkpoint and the kill, so there was
		// nothing to crash; it checked itself. Start the next one.
		if err := e.s.Delete(w.id); err != nil {
			return opResult{out: opFailed, broken: err}
		}
		if err := w.submit(e); err != nil {
			return opResult{out: opFailed, broken: err}
		}
		return opResult{out: opCancelled}
	case ok && info.Status == core.StatusFailed:
		return opResult{out: opFailed, wrong: fmt.Errorf("recover: app %d failed: %s", w.id, info.Failure)}
	}
	info, err := w.running(e)
	if err != nil {
		return opResult{out: opFailed, broken: err}
	}
	victim, phases, err := w.kill(e, info, episodeBound)
	if err != nil {
		return opResult{out: opFailed, broken: err}
	}
	res := opResult{out: opFailed}
	if phases == nil {
		cur, _ := e.s.Status(w.id)
		r.remark("recover: episode killing node %d stuck at %v gen %d after %v", victim, cur.Status, cur.Gen, episodeBound)
	} else {
		res = opResult{lat: phases[len(phases)-1].end.Sub(phases[0].start)}
		if r.tr != nil {
			op := r.tr.newOp()
			root := r.tr.add(op, 0, "episode", phases[0].start, phases[len(phases)-1].end)
			for _, p := range phases {
				r.tr.add(op, root, p.name, p.start, p.end)
			}
		}
		// The restored job runs to its end and checks its output.
		done, err := e.s.Wait(w.id, jobBound)
		switch {
		case err != nil:
			return opResult{out: opFailed, broken: err}
		case done.Status != core.StatusDone:
			return opResult{out: opFailed, wrong: fmt.Errorf("recover: %s app %d after the kill of node %d: %v: %s",
				w.job.Name, w.id, victim, done.Status, done.Failure)}
		}
	}
	// A done job keeps its checkpoints, which every view change would
	// re-replicate; the operator deletes it, as it deletes a stuck one.
	if err := e.s.Delete(w.id); err != nil {
		return opResult{out: opFailed, broken: err}
	}
	if err := w.grow(e); err != nil {
		return opResult{out: opFailed, broken: err}
	}
	// The next job is submitted after the replacement joined, so every
	// node holds its entry in the app table.
	if err := w.submit(e); err != nil {
		return opResult{out: opFailed, broken: err}
	}
	return res
}

// finish waits for the current job to complete its self-check.
func (w *recoverLoad) finish(e *env, r *run) error {
	info, err := e.s.Wait(w.id, 60*time.Second)
	if err != nil {
		return fmt.Errorf("recover: %s app %d: %w", w.job.Name, w.id, err)
	}
	if info.Status != core.StatusDone {
		return fmt.Errorf("recover: %s app %d %v: %s", w.job.Name, w.id, info.Status, info.Failure)
	}
	return nil
}

// ---- the joiner defect ----

// joinerProbes is how many probe episodes a traced run takes.
const joinerProbes = 6

// joinerProbe measures a known defect that the recover workloads step
// around: daemon.New sets no gcs.Config.StateProvider, so a node that
// joins after a job's submit has no entry for the job, yet placement may
// give it a restarted rank, which then never restores. Each probe submits
// a long ring on a full memory-store cluster, crashes a rank's node, adds
// a replacement once the ring runs again, and then crashes another rank's
// node and times that restart; a restart stuck past episodeBound counts
// as the time waited for it. It reports the mean (recover.joiner_ms):
// about recover_ms.p50 once the defect is fixed, and about episodeBound
// while restarts stick on the joiner. The first kills, which every node
// knew the job for, also give proc.abort_ms: the survivors' abort, a phase
// that the one-rank recover-vm jobs do not have.
func joinerProbe(root string, o options, r *run) error {
	w := newRecoverLoad(o.seed, o.smoke, core.StoreMemory)
	w.job.Args = apps.RingArgs(10 * recoverRounds) // outlives both kills
	e, err := boot(root, recoverNodes)
	if err != nil {
		return err
	}
	defer e.shutdown()
	probes := joinerProbes
	if o.smoke {
		probes = 2
	}
	var lat, aborts []float64
	stuck := 0
	for tries := 0; len(lat) < probes; tries++ {
		if tries == 2*probes {
			return fmt.Errorf("joiner probe: %d of %d first kills did not recover", tries-len(lat), tries)
		}
		if err := w.submit(e); err != nil {
			return err
		}
		info, err := w.running(e)
		if err != nil {
			return err
		}
		_, phases, err := w.kill(e, info, episodeBound)
		if err != nil {
			return err
		}
		if phases != nil {
			for _, p := range phases {
				if p.name == "proc.abort" {
					aborts = append(aborts, ms(p.dur()))
				}
			}
			// Every node knew the job at this kill; the replacement does not.
			if err := w.grow(e); err != nil {
				return err
			}
			if err := w.awaitCheckpoint(e); err != nil {
				return err
			}
			if info, err = w.running(e); err != nil {
				return err
			}
			t0 := time.Now()
			victim, phases, err := w.kill(e, info, episodeBound)
			if err != nil {
				return err
			}
			var d time.Duration
			if phases != nil {
				d = phases[len(phases)-1].end.Sub(phases[0].start)
			} else {
				d = time.Since(t0) // the wait, at least episodeBound
				stuck++
				cur, _ := e.s.Status(w.id)
				r.remark("joiner probe: kill of node %d stuck at %v gen %d after %v", victim, cur.Status, cur.Gen, episodeBound)
			}
			lat = append(lat, ms(d))
		}
		if err := e.s.Delete(w.id); err != nil {
			return err
		}
		if err := w.grow(e); err != nil {
			return err
		}
	}
	r.layers["recover.joiner_ms"] = []float64{mean(lat)}
	r.layers["proc.abort_ms"] = aborts
	r.remark("joiner probe: %d of %d restarts after a replacement joined stuck (the StateProvider defect)", stuck, len(lat))
	return nil
}
