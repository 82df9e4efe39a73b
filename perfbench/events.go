package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"starfish/internal/cluster"
	"starfish/internal/evstore"
	"starfish/internal/wire"
)

// eventLog merges the records of every live node's event store. It reads
// each store incrementally (by sequence number), so repeated polls cost
// only the new records.
type eventLog struct {
	c    *cluster.Cluster
	last map[wire.NodeID]uint64
	recs []evstore.Record
	// dropped sums evstore Stats().Dropped over every store polled; a
	// non-zero value means event-derived phases may be incomplete.
	dropped map[wire.NodeID]uint64
}

func newEventLog(c *cluster.Cluster) *eventLog {
	return &eventLog{c: c, last: map[wire.NodeID]uint64{}, dropped: map[wire.NodeID]uint64{}}
}

var allRecords = &evstore.Query{}

// poll appends every record that arrived since the last poll. Callers poll
// before crashing a node, so its records are not lost with it.
func (l *eventLog) poll() {
	for _, id := range l.c.Nodes() {
		st, err := l.c.Events(id)
		if err != nil {
			continue // crashed between Nodes and Events
		}
		recs := st.QueryAfter(allRecords, l.last[id])
		if n := len(recs); n > 0 {
			l.last[id] = recs[n-1].Seq
			l.recs = append(l.recs, recs...)
		}
		l.dropped[id] = st.Stats().Dropped
	}
}

// since returns the merged records received at or after t, ordered by
// receive time.
func (l *eventLog) since(t time.Time) []evstore.Record {
	ts := t.UnixNano()
	var out []evstore.Record
	for _, r := range l.recs {
		if r.WriteTS >= ts {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].WriteTS < out[j].WriteTS })
	return out
}

// trim forgets records received before t (keeps long runs bounded).
func (l *eventLog) trim(t time.Time) {
	ts := t.UnixNano()
	kept := l.recs[:0]
	for _, r := range l.recs {
		if r.WriteTS >= ts {
			kept = append(kept, r)
		}
	}
	l.recs = kept
}

func (l *eventLog) totalDropped() uint64 {
	var n uint64
	for _, d := range l.dropped {
		n += d
	}
	return n
}

// phase is one named interval between two milestones.
type phase struct {
	name       string
	start, end time.Time
}

func (p phase) dur() time.Duration { return p.end.Sub(p.start) }

func tsOf(r *evstore.Record) time.Time { return time.Unix(0, r.WriteTS) }

func attrNum(r *evstore.Record, k string) (uint64, bool) {
	v, ok := r.Get(k)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(v, 10, 64)
	return n, err == nil
}

func is(r *evstore.Record, component, kind string) bool {
	return r.Component == component && r.Kind == kind
}

// chain turns milestone times into consecutive phases. A milestone that
// lands before its predecessor (records from different nodes interleave)
// is clamped to it, so the phases always add up to last minus first.
func chain(names []string, marks []time.Time) []phase {
	out := make([]phase, len(names))
	prev := marks[0]
	for i, name := range names {
		t := marks[i+1]
		if t.Before(prev) {
			t = prev
		}
		out[i] = phase{name: name, start: prev, end: t}
		prev = t
	}
	return out
}

// recoveryPhaseNames are the consecutive phases of one recovery episode,
// from the node kill to the last rank of the new generation restored.
var recoveryPhaseNames = []string{
	"gossip.detect",  // kill -> first gossip suspect of the victim
	"gossip.confirm", // -> first confirm-dead of the victim
	"gcs.view",       // -> first main-group view without the victim
	"daemon.restart", // -> first daemon restarting record of the app
	"proc.abort",     // -> last surviving old-generation rank done (aborted)
	"lwg.reform",     // -> first daemon running record (new group formed)
	"proc.restore",   // -> last rank of the new generation restored
}

// recoveryPhases extracts the phases of the episode that killed victim
// from merged records (ordered by receive time). ranks is the app's size.
func recoveryPhases(recs []evstore.Record, app wire.AppID, victim wire.NodeID, ranks int) ([]phase, error) {
	var marks [8]time.Time
	var have [8]bool
	set := func(i int, r *evstore.Record) {
		if !have[i] {
			marks[i], have[i] = tsOf(r), true
		}
	}
	target := strconv.FormatUint(uint64(victim), 10)
	restored := map[int32]bool{}
	for i := range recs {
		r := &recs[i]
		switch {
		case is(r, "cluster", "kill"):
			if v, _ := r.Get("target"); v == target {
				set(0, r)
			}
		case !have[0]:
			continue
		case is(r, "gossip", "suspect"):
			if v, _ := r.Get("target"); v == target {
				set(1, r)
			}
		case is(r, "gossip", "confirm-dead"):
			if v, _ := r.Get("target"); v == target {
				set(2, r)
			}
		case is(r, "gcs", "view-change"):
			if v, _ := r.Get("members"); !containsID(v, target) {
				set(3, r)
			}
		case r.App != app:
		case is(r, "daemon", "restarting"):
			set(4, r)
		case is(r, "proc", "done") && have[4]:
			if v, _ := r.Get("err"); strings.Contains(v, "aborted") {
				marks[5], have[5] = tsOf(r), true // the last one wins
			}
		case is(r, "daemon", "running") && have[4]:
			set(6, r)
		case (is(r, "proc", "restore") || is(r, "proc", "start")) && have[6]:
			restored[r.Rank] = true
			if len(restored) == ranks {
				set(7, r)
			}
		}
	}
	if !have[5] {
		marks[5], have[5] = marks[4], have[4] // every old rank died with the victim
	}
	for i, ok := range have {
		if !ok {
			return nil, fmt.Errorf("recovery of app %d after killing node %d: milestone %d missing", app, victim, i)
		}
	}
	return chain(recoveryPhaseNames, marks[:]), nil
}

func containsID(list, id string) bool {
	for _, m := range strings.Split(list, ",") {
		if m == id {
			return true
		}
	}
	return false
}

// jobPhaseNames are the phases of one job, from the submit call to the
// daemon's app-done record.
var jobPhaseNames = []string{
	"daemon.launch", // submit -> first daemon running record
	"app.run",       // -> first rank's proc done record
	"proc.teardown", // -> first daemon app-done record
}

// jobPhases extracts the phases of one job submitted at submitAt.
func jobPhases(recs []evstore.Record, app wire.AppID, submitAt time.Time) ([]phase, error) {
	var marks [4]time.Time
	var have [4]bool
	marks[0], have[0] = submitAt, true
	for i := range recs {
		r := &recs[i]
		if r.App != app {
			continue
		}
		switch {
		case is(r, "daemon", "running") && !have[1]:
			marks[1], have[1] = tsOf(r), true
		case is(r, "proc", "done") && !have[2]:
			marks[2], have[2] = tsOf(r), true
		case is(r, "daemon", "app-done") && !have[3]:
			marks[3], have[3] = tsOf(r), true
		}
	}
	for i, ok := range have {
		if !ok {
			return nil, fmt.Errorf("job %d: milestone %d missing", app, i)
		}
	}
	return chain(jobPhaseNames, marks[:]), nil
}

// ckptPhaseNames are the phases of one checkpoint, from the request to the
// commit record.
var ckptPhaseNames = []string{
	"proc.capture", // request -> last rank's proc checkpoint record
	"proc.commit",  // -> proc commit record of the line
}

// ckptPhases extracts the phases of checkpoint index of app, requested at
// reqAt.
func ckptPhases(recs []evstore.Record, app wire.AppID, index uint64, ranks int, reqAt time.Time) ([]phase, error) {
	var marks [3]time.Time
	var have [3]bool
	marks[0], have[0] = reqAt, true
	captured := map[int32]bool{}
	for i := range recs {
		r := &recs[i]
		if r.App != app {
			continue
		}
		switch {
		case is(r, "proc", "checkpoint"):
			if n, ok := attrNum(r, "index"); ok && n == index {
				captured[r.Rank] = true
				if len(captured) == ranks {
					marks[1], have[1] = tsOf(r), true
				}
			}
		case is(r, "proc", "commit") && !have[2]:
			if n, ok := attrNum(r, "line"); ok && n == index {
				marks[2], have[2] = tsOf(r), true
			}
		}
	}
	for i, ok := range have {
		if !ok {
			return nil, fmt.Errorf("checkpoint %d of app %d: milestone %d missing", index, app, i)
		}
	}
	return chain(ckptPhaseNames, marks[:]), nil
}
