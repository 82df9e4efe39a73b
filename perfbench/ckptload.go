package main

import (
	"fmt"
	"time"

	"starfish/internal/core"
	"starfish/internal/proc"
)

// ckptBound is how long one checkpoint may take before it counts as
// failed (healthy ones take tens of milliseconds).
const ckptBound = 2 * time.Second

// ckptThink is the pause between one committed checkpoint and the next
// request. Back-to-back checkpoints would overlap each epoch with the
// previous one's background work and garbage; a periodic checkpointer
// does not do that.
const ckptThink = 15 * time.Millisecond

// ckptLoad runs the VM program as a one-rank job checkpointing to
// replicated memory through the delta pipeline, and takes one checkpoint
// at a time: request, wait for the committed line to advance, pause.
type ckptLoad struct {
	prog   *vmProgram
	sweeps int64
	id     core.AppID
	// jobDur is how long a job runs at the baseline's VM speed.
	jobDur time.Duration
}

// newCkptLoad generates the VM program for seed and runs its baseline,
// which yields the checksum every job must reproduce and the VM speed that
// sizes the jobs.
func newCkptLoad(seed int64, smoke bool) (*ckptLoad, error) {
	pages, dirty, sweeps := vmPages, vmDirty, int64(600_000)
	if smoke {
		pages, dirty, sweeps = 16, 4, 1_500_000
	}
	w := &ckptLoad{prog: genVMProgram(seed, pages, dirty), sweeps: sweeps}
	if err := w.prog.baseline(sweeps); err != nil {
		return nil, err
	}
	w.jobDur = w.prog.duration(sweeps)
	return w, nil
}

func (w *ckptLoad) nodes() int { return 3 }

func (w *ckptLoad) props() []string {
	return []string{"ranks=1 (compute-bound VM)", "cores=2", "nodes=3",
		fmt.Sprintf("heap_B=%d", w.prog.heapWords*4),
		fmt.Sprintf("dirty_pages=%d/%d per epoch", len(w.prog.dirtyPages), w.prog.heapWords/vmPageWords),
		fmt.Sprintf("sweeps_per_job=%d", w.sweeps), "store=memory k=2 delta (full every 8)",
		fmt.Sprintf("think_ms=%d", ckptThink.Milliseconds()), "seeded_input=VM constants and dirty-page pattern",
		fmt.Sprintf("baseline_vm_instr_per_s=%.3g (a job runs about %v without checkpoints)", w.prog.rate, w.jobDur.Round(time.Millisecond))}
}

// start launches the first job without waiting out its fill phase, which
// would only add the VM's speed to the set-up time; the first timed
// checkpoints of the run overlap the fill.
func (w *ckptLoad) start(e *env, r *run) error { return w.submit(e, false) }

// submit launches the next job and takes one untimed checkpoint: a new
// job's first capture is always a full record. With settle it first lets
// the fill phase pass, so that the timed checkpoints see only the sweeps'
// writes.
func (w *ckptLoad) submit(e *env, settle bool) error {
	w.id++
	vm := &proc.VMApp{
		StepSlice: w.prog.sweepInstrs, NGlobals: vmGlobals, Source: w.prog.src,
		Globals: w.prog.globals(0, w.sweeps, w.prog.checksum),
	}
	job := core.Job{ID: w.id, Name: proc.VMAppName, Args: proc.EncodeVMApp(vm), Ranks: 1,
		Store: core.StoreMemory, Delta: true}
	if err := e.s.Submit(job); err != nil {
		return err
	}
	if !waitFor(e, 10*time.Second, func() bool {
		st, ok := e.s.Status(w.id)
		return ok && st.Status == core.StatusRunning
	}) {
		return fmt.Errorf("ckpt: job %d never started", w.id)
	}
	if settle {
		time.Sleep(w.prog.fillTime()*3/2 + 20*time.Millisecond)
	}
	if res := w.checkpoint(e, &run{}); res.out != opOK || res.wrong != nil {
		return fmt.Errorf("ckpt: warm-up checkpoint of job %d failed: %v", w.id, res.wrong)
	}
	return nil
}

// verify waits for the current job to finish its run and self-check.
func (w *ckptLoad) verify(e *env) error {
	info, err := e.s.Wait(w.id, 2*w.jobDur+30*time.Second)
	if err != nil {
		return fmt.Errorf("ckpt: job %d: %w", w.id, err)
	}
	if info.Status != core.StatusDone {
		return fmt.Errorf("ckpt: job %d %v: %s (checksum mismatch traps)", w.id, info.Status, info.Failure)
	}
	return nil
}

func (w *ckptLoad) op(e *env, r *run) opResult {
	time.Sleep(ckptThink)
	if w.ended(e) {
		if err := w.verify(e); err != nil {
			return opResult{out: opFailed, wrong: err}
		}
		if err := w.submit(e, true); err != nil {
			return opResult{out: opFailed, wrong: err}
		}
	}
	return w.checkpoint(e, r)
}

func (w *ckptLoad) checkpoint(e *env, r *run) opResult {
	prev := uint64(0)
	if line, err := e.s.CommittedLine(w.id); err == nil {
		prev = line[0]
	}
	t0 := time.Now()
	var index uint64
	var ok, ended bool
	if err := e.s.Checkpoint(w.id); err != nil {
		if ended = w.ended(e); !ended {
			return opResult{out: opFailed, wrong: err}
		}
	} else {
		ok = waitFor(e, ckptBound, func() bool {
			if line, err := e.s.CommittedLine(w.id); err == nil && line[0] > prev {
				index = line[0]
				return true
			}
			ended = w.ended(e)
			return ended
		})
	}
	t1 := time.Now()
	switch {
	case ended:
		if err := w.verify(e); err != nil {
			return opResult{out: opFailed, wrong: err}
		}
		return opResult{out: opCancelled}
	case !ok:
		r.remark("ckpt: checkpoint of job %d not committed within %v", w.id, ckptBound)
		return opResult{out: opFailed}
	}
	if r.tr != nil {
		op := r.tr.newOp()
		root := r.tr.add(op, 0, "checkpoint", t0, t1)
		e.log.poll()
		recs := e.log.since(t0)
		if ph, err := ckptPhases(recs, w.id, index, 1, t0); err == nil {
			for _, p := range ph {
				r.tr.add(op, root, p.name, p.start, p.end)
			}
		} else {
			r.remark("%v", err)
		}
		for i := range recs {
			if rec := &recs[i]; rec.App == w.id && is(rec, "ckpt", "epoch") {
				if n, ok := attrNum(rec, "stored"); ok {
					r.note("ckpt.stored_B_per_epoch", float64(n))
				}
			}
		}
		e.log.trim(t1)
	}
	return opResult{lat: t1.Sub(t0)}
}

// ended reports whether the current job has stopped running.
func (w *ckptLoad) ended(e *env) bool {
	st, _ := e.s.Status(w.id)
	return st.Status == core.StatusDone || st.Status == core.StatusFailed
}

func (w *ckptLoad) finish(e *env, r *run) error { return w.verify(e) }
