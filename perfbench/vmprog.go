package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"starfish/internal/svm"
)

// The ckpt workload's VM program. It fills a heap of vmPages 4 KiB pages
// with seeded values, then runs sweeps: each sweep rewrites one seeded word
// in each of a seeded subset of the pages, with a value that depends on
// the sweep index. Between any two checkpoints exactly those pages change,
// however fast the VM runs, so the dirty share is an input property and
// not an accident of pacing. At the end it folds the heap into a checksum,
// outputs it, and traps unless it equals the expected value passed in.
//
// All arithmetic is masked to 31 bits, so the result is the same on the
// 32- and 64-bit simulated architectures.
//
// The job runs one sweep per Step (StepSlice = sweepInstrs), and NOPs pad
// the fill phase so the first sweep starts on a Step boundary. Every
// checkpoint is taken at a Step boundary, so every snapshot sees the VM at
// the sweep loop head with an empty stack. Without that, the operand
// stack's depth differs between snapshots, which shifts every section
// behind it in the VM image, and every block would differ.
const (
	vmPageWords = 1024 // one 4 KiB page of 32-bit words
	vmPages     = 256  // 1 MiB heap on the 32-bit machines
	vmDirty     = 64   // pages rewritten per sweep: a 25% dirty share
	vmMask      = 0x7fffffff
	// Globals: 0 = sweep index j, 1 = expected checksum, 2 = loop index,
	// 3 = accumulator, 4 = sweep count K.
	vmGlobals = 5
)

// vmArch is the architecture of node 1, which hosts the job's single rank
// under the daemons' deterministic placement.
var vmArch = svm.Machines[0]

type vmProgram struct {
	src        string
	heapWords  int
	dirtyPages []int
	// Instruction counts, for sizing a job from the measured VM speed.
	fillInstrs, sweepInstrs, checkInstrs int
	// From the baseline run.
	checksum int64
	rate     float64 // VM instructions per second
}

// genVMProgram writes the program for seed.
func genVMProgram(seed int64, pages, dirty int) *vmProgram {
	rng := rand.New(rand.NewSource(seed))
	p := &vmProgram{heapWords: pages * vmPageWords}
	p.dirtyPages = rng.Perm(pages)[:dirty]
	sort.Ints(p.dirtyPages)
	a, b := 1+rng.Int63n(vmMask), rng.Int63n(vmMask)
	var s strings.Builder
	emit := func(format string, args ...any) { fmt.Fprintf(&s, format+"\n", args...) }
	h := p.heapWords
	p.sweepInstrs = 9 + 9*dirty
	// Instructions before the first sweep: 5 set-up, 18 per fill
	// iteration, 4 for the failing loop test.
	before := 5 + 18*h + 4
	for i := 0; i < (p.sweepInstrs-before%p.sweepInstrs)%p.sweepInstrs; i++ {
		emit("nop")
	}
	emit("push %d", h)
	emit("alloc")
	emit("pop")
	emit("push 0")
	emit("storeg 2")
	// fill: mem[i] = (i*a + b) & mask
	emit("fill: loadg 2")
	emit("push %d", h)
	emit("lt")
	emit("jz sweep")
	emit("loadg 2")
	emit("loadg 2")
	emit("push %d", a)
	emit("mul")
	emit("push %d", b)
	emit("add")
	emit("push %d", vmMask)
	emit("and")
	emit("storem")
	emit("loadg 2")
	emit("push 1")
	emit("add")
	emit("storeg 2")
	emit("jmp fill")
	p.fillInstrs = before
	// sweep j: for each dirty page, mem[addr] = (j*c + d) & mask
	emit("sweep: loadg 0")
	emit("loadg 4")
	emit("lt")
	emit("jz check")
	for _, pg := range p.dirtyPages {
		addr := pg*vmPageWords + rng.Intn(vmPageWords)
		c, d := 1+rng.Int63n(vmMask), rng.Int63n(vmMask)
		emit("push %d", addr)
		emit("loadg 0")
		emit("push %d", c)
		emit("mul")
		emit("push %d", d)
		emit("add")
		emit("push %d", vmMask)
		emit("and")
		emit("storem")
	}
	emit("loadg 0")
	emit("push 1")
	emit("add")
	emit("storeg 0")
	emit("jmp sweep")
	// check: acc = (acc*31 + mem[i]) & mask over the heap
	emit("check: push 0")
	emit("storeg 2")
	emit("push 0")
	emit("storeg 3")
	emit("cl: loadg 2")
	emit("push %d", h)
	emit("lt")
	emit("jz cmp")
	emit("loadg 3")
	emit("push 31")
	emit("mul")
	emit("loadg 2")
	emit("loadm")
	emit("add")
	emit("push %d", vmMask)
	emit("and")
	emit("storeg 3")
	emit("loadg 2")
	emit("push 1")
	emit("add")
	emit("storeg 2")
	emit("jmp cl")
	p.checkInstrs = 17 * h
	emit("cmp: loadg 3")
	emit("out")
	emit("loadg 3")
	emit("loadg 1")
	emit("eq")
	emit("jnz ok")
	emit("push 1")
	emit("push 0")
	emit("div")
	emit("ok: halt")
	p.src = s.String()
	return p
}

// globals returns the program's initial globals for sweeps [from, k).
func (p *vmProgram) globals(from, k, expected int64) []int64 {
	return []int64{from, expected, 0, 0, k}
}

// baseline runs the program in a plain single-process VM. The final heap
// depends only on the last sweep index, so running the last of k sweeps
// alone yields the checksum a job of k sweeps must reproduce. The run also
// measures the VM's instruction rate, which sizes the jobs.
func (p *vmProgram) baseline(k int64) error {
	prog, err := svm.Assemble(p.src)
	if err != nil {
		return err
	}
	vm := svm.New(vmArch, prog, vmGlobals)
	copy(vm.Globals, p.globals(k-1, k, -1)) // -1: no checksum can match
	t0 := time.Now()
	err = vm.Run(1 << 40)
	el := time.Since(t0)
	if !errors.Is(err, svm.ErrDivByZero) || len(vm.Output) != 1 {
		return fmt.Errorf("ckpt baseline: want the checksum trap, got %v with %d outputs", err, len(vm.Output))
	}
	p.checksum = vm.Output[0]
	p.rate = float64(vm.Steps) / el.Seconds()
	return nil
}

// duration estimates a k-sweep job's run time at the baseline VM speed.
func (p *vmProgram) duration(k int64) time.Duration {
	instrs := float64(p.fillInstrs+p.checkInstrs) + float64(k)*float64(p.sweepInstrs)
	return time.Duration(instrs / p.rate * float64(time.Second))
}

// fillTime estimates how long the fill phase runs.
func (p *vmProgram) fillTime() time.Duration {
	return time.Duration(float64(p.fillInstrs) / p.rate * float64(time.Second))
}
