package main

import (
	"errors"
	"time"

	"distws/internal/obs/parprof/wallclock"
	"distws/internal/sim"
	"distws/internal/sim/par"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/victim"
)

// The probes below measure layers from outside the engine, through the
// pluggable interfaces core.Config takes. They only forward calls and
// read the host clock, so a probed run's simulated result is identical
// to an unprobed one. Under Config.Shards the engine calls selectors
// and detectors from several shard goroutines at once, always on
// behalf of a rank the calling shard owns; every counter therefore
// lives in a per-rank slot that only the owning shard writes.

// setupProbe records when a run first asks its selector for a victim:
// the end of the engine's set-up. The first Next call happens while
// the engine is still single-threaded (ranks go idle before any shard
// goroutine starts), so later calls only read the flag. With stop set,
// the first call panics with errSetupDone instead of returning, which
// ends core.Run right after its set-up.
type setupProbe struct {
	stop  bool
	seen  bool
	first time.Time
}

var errSetupDone = errors.New("set-up done")

func (p *setupProbe) wrap(f victim.Factory) victim.Factory {
	return func(job *topology.Job, seed uint64) victim.Selector {
		return &setupSelector{Selector: f(job, seed), p: p}
	}
}

type setupSelector struct {
	victim.Selector
	p *setupProbe
}

func (s *setupSelector) Next(thief int) int {
	if !s.p.seen {
		s.p.seen = true
		s.p.first = time.Now()
		if s.p.stop {
			panic(errSetupDone)
		}
	}
	return s.Selector.Next(thief)
}

// rankSlot is one rank's call counter and accumulated host time.
type rankSlot struct {
	calls uint64
	dur   time.Duration
}

func sumSlots(slots []rankSlot) (calls uint64, dur time.Duration) {
	for _, s := range slots {
		calls += s.calls
		dur += s.dur
	}
	return calls, dur
}

// victimProbe times the selector factory and every Next call.
type victimProbe struct {
	factory time.Duration
	slots   []rankSlot // per thief
}

func (p *victimProbe) wrap(f victim.Factory) victim.Factory {
	return func(job *topology.Job, seed uint64) victim.Selector {
		t0 := time.Now()
		s := f(job, seed)
		p.factory = time.Since(t0)
		p.slots = make([]rankSlot, job.Ranks())
		return &timedSelector{Selector: s, slots: p.slots}
	}
}

type timedSelector struct {
	victim.Selector
	slots []rankSlot
}

func (s *timedSelector) Next(thief int) int {
	t0 := time.Now()
	v := s.Selector.Next(thief)
	slot := &s.slots[thief]
	slot.dur += time.Since(t0)
	slot.calls++
	return v
}

// termProbe counts and times the detector's per-rank hooks (WorkSent,
// WorkReceived, OnIdle, OnToken, IdleDecisionPossible). Terminated
// takes no rank, so the engine's shards may call it concurrently with
// no slot to charge; it and the fault-only hooks (WorkLost,
// RemoveRank, whose rank need not belong to the calling shard) are
// forwarded untimed.
type termProbe struct {
	slots []rankSlot // per rank
}

func (p *termProbe) wrap(f term.Factory) term.Factory {
	return func(n int) term.Detector {
		p.slots = make([]rankSlot, n)
		d := &timedDetector{Detector: f(n), slots: p.slots}
		if da, ok := d.Detector.(term.DecisionAware); ok {
			// Without DecisionAware the sharded engine serializes every
			// window, so the wrapper must keep the capability exactly
			// when the wrapped detector has it.
			return &timedDecisionDetector{timedDetector: d, da: da}
		}
		return d
	}
}

type timedDetector struct {
	term.Detector
	slots []rankSlot
}

func (d *timedDetector) done(rank int, t0 time.Time) {
	slot := &d.slots[rank]
	slot.dur += time.Since(t0)
	slot.calls++
}

func (d *timedDetector) WorkSent(rank int) {
	t0 := time.Now()
	d.Detector.WorkSent(rank)
	d.done(rank, t0)
}

func (d *timedDetector) WorkReceived(rank int) {
	t0 := time.Now()
	d.Detector.WorkReceived(rank)
	d.done(rank, t0)
}

func (d *timedDetector) OnIdle(rank int) []term.Send {
	t0 := time.Now()
	s := d.Detector.OnIdle(rank)
	d.done(rank, t0)
	return s
}

func (d *timedDetector) OnToken(rank int, tok term.Token, idle bool) []term.Send {
	t0 := time.Now()
	s := d.Detector.OnToken(rank, tok, idle)
	d.done(rank, t0)
	return s
}

type timedDecisionDetector struct {
	*timedDetector
	da term.DecisionAware
}

func (d *timedDecisionDetector) IdleDecisionPossible(rank int) bool {
	t0 := time.Now()
	ok := d.da.IdleDecisionPossible(rank)
	d.done(rank, t0)
	return ok
}

// wallProbe forwards to the wallclock profile, which splits each
// shard's window time into busy and barrier wait, and adds the
// coordinator's gap between one window's end and the next window's
// start: staged-message injection, the global merge sort, the
// next-event scan and the window policy.
type wallProbe struct {
	*wallclock.Profile
	lastDone time.Time
	merge    time.Duration
}

func newWallProbe(shards int) *wallProbe {
	return &wallProbe{Profile: wallclock.New(shards)}
}

func (p *wallProbe) WindowStart(start, end sim.Time, serialized bool) {
	if !p.lastDone.IsZero() {
		p.merge += time.Since(p.lastDone)
	}
	p.Profile.WindowStart(start, end, serialized)
}

func (p *wallProbe) WindowDone() {
	p.Profile.WindowDone()
	p.lastDone = time.Now()
}

var (
	_ par.WallProbe      = (*wallProbe)(nil)
	_ term.DecisionAware = (*timedDecisionDetector)(nil)
)
