package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"starfish/internal/core"
	"starfish/internal/wire"
)

// haloName is the registered name of the benchmark's halo-exchange app.
const haloName = "perfbench-halo"

// haloSize is the halo payload: large enough that the per-byte cost of
// the plain Send/Recv path shows next to ring's per-message cost.
const haloSize = 64 << 10

const haloTag int32 = 7

// haloHdr is the per-message header: round, then source rank.
const haloHdr = 16

func init() {
	core.RegisterApp(haloName, func(args []byte) (core.App, error) { return decodeHalo(args) })
}

// haloApp exchanges a seeded payload with both ring neighbours every round
// through plain Comm.Send/Recv and checks every payload it receives.
type haloApp struct {
	seed   int64
	rounds int64
	size   int
	round  int64
	base   [][]byte // expected payload body per source rank
	out    []byte
}

func haloArgs(seed, rounds int64, size int) []byte {
	w := wire.NewWriter(24)
	w.I64(seed).I64(rounds).I64(int64(size))
	return w.Bytes()
}

func decodeHalo(args []byte) (*haloApp, error) {
	r := wire.NewReader(args)
	a := &haloApp{seed: r.I64(), rounds: r.I64(), size: int(r.I64())}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if a.size < haloHdr {
		return nil, fmt.Errorf("halo: payload %d B is smaller than its header", a.size)
	}
	return a, nil
}

// haloPayload is the body rank src sends under seed.
func haloPayload(seed int64, src, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed*1009 + int64(src))).Read(b)
	return b
}

func (a *haloApp) setup(ctx *core.Ctx) {
	a.base = make([][]byte, ctx.Size)
	for r := range a.base {
		a.base[r] = haloPayload(a.seed, r, a.size)
	}
	a.out = append([]byte(nil), a.base[ctx.Rank]...)
}

func (a *haloApp) Init(ctx *core.Ctx) error {
	a.setup(ctx)
	return nil
}

func (a *haloApp) Restore(ctx *core.Ctx, state []byte) error {
	r := wire.NewReader(state)
	a.round = r.I64()
	a.setup(ctx)
	return r.Err()
}

func (a *haloApp) Snapshot() ([]byte, error) {
	w := wire.NewWriter(8)
	w.I64(a.round)
	return w.Bytes(), nil
}

func (a *haloApp) Step(ctx *core.Ctx) (bool, error) {
	if a.round >= a.rounds {
		return true, nil
	}
	n := ctx.Size
	me := int(ctx.Rank)
	left, right := wire.Rank((me+n-1)%n), wire.Rank((me+1)%n)
	binary.LittleEndian.PutUint64(a.out[0:], uint64(a.round))
	binary.LittleEndian.PutUint64(a.out[8:], uint64(me))
	for _, dst := range []wire.Rank{right, left} {
		if err := ctx.Comm.Send(dst, haloTag, a.out); err != nil {
			return false, err
		}
	}
	for _, src := range []wire.Rank{left, right} {
		data, _, err := ctx.Comm.Recv(src, haloTag)
		if err != nil {
			return false, err
		}
		if err := a.check(data, int(src)); err != nil {
			return true, err
		}
	}
	a.round++
	return false, nil
}

// check verifies one received payload: header and every body byte.
func (a *haloApp) check(data []byte, src int) error {
	if len(data) != a.size {
		return fmt.Errorf("halo round %d: %d B from rank %d, want %d", a.round, len(data), src, a.size)
	}
	round := int64(binary.LittleEndian.Uint64(data[0:]))
	from := int(binary.LittleEndian.Uint64(data[8:]))
	if round != a.round || from != src {
		return fmt.Errorf("halo round %d: header says round %d from rank %d, want rank %d", a.round, round, from, src)
	}
	if !bytes.Equal(data[haloHdr:], a.base[src][haloHdr:]) {
		return fmt.Errorf("halo round %d: payload from rank %d corrupted", a.round, src)
	}
	return nil
}
