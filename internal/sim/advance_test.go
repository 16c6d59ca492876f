package sim

import (
	"testing"

	"meecc/internal/obs"
)

// observed returns an engine counting sim.ops and sim.busy_cycles.
func observed(seed uint64) (*Engine, *obs.Observer) {
	o := obs.NewObserver()
	e := NewEngine(seed)
	e.Observe(o)
	return e, o
}

// TestAdvanceNCommitsEveryOp pins AdvanceN's accounting: n operations of
// step cycles each count as n ops and n*step busy cycles, zero inputs take
// the same minimums as Advance, and the last operation's start is what Run
// reports.
func TestAdvanceNCommitsEveryOp(t *testing.T) {
	e, o := observed(1)
	var got []int
	var clocks []Cycles
	e.Spawn("w", func(p *Proc) {
		got = append(got, p.AdvanceN(7, 5))
		clocks = append(clocks, p.Now())
		got = append(got, p.AdvanceN(0, 0)) // minimums: one op of one cycle
		clocks = append(clocks, p.Now())
		p.AdvanceN(10, 3)
	})
	end := e.Run(-1)
	e.Close()
	if got[0] != 5 || got[1] != 1 || clocks[0] != 35 || clocks[1] != 36 {
		t.Fatalf("committed %v at clocks %v, want [5 1] at [35 36]", got, clocks)
	}
	// Operations start at 0,7,...,28, 35, 36,46,56; the body's return is
	// the final one at 66.
	if end != 66 {
		t.Fatalf("Run reported %d, want 66", end)
	}
	c := o.Snapshot().Counters
	if c["sim.ops"] != 9 || c["sim.busy_cycles"] != 66 {
		t.Fatalf("ops=%d busy=%d, want 9 and 66", c["sim.ops"], c["sim.busy_cycles"])
	}
}

// TestAdvanceNStopsAtRunLimit checks that no collapsed operation starts past
// the Run limit: the commit is cut to the operations that fit, Run reports
// the last one's start, and the rest runs on the next Run.
func TestAdvanceNStopsAtRunLimit(t *testing.T) {
	e, o := observed(2)
	var got []int
	e.Spawn("w", func(p *Proc) {
		left := 8
		for left > 0 {
			m := p.AdvanceN(10, left)
			got = append(got, m)
			left -= m
		}
	})
	if end := e.Run(35); end != 30 {
		t.Fatalf("limited Run reported %d, want 30 (ops at 0,10,20,30)", end)
	}
	if ops := o.Snapshot().Counters["sim.ops"]; ops != 4 {
		t.Fatalf("ops after limited Run = %d, want 4", ops)
	}
	e.Run(-1)
	e.Close()
	if len(got) != 2 || got[0] != 4 || got[1] != 4 {
		t.Fatalf("commits %v, want [4 4]", got)
	}
	if ops := o.Snapshot().Counters["sim.ops"]; ops != 8 {
		t.Fatalf("ops after full Run = %d, want 8", ops)
	}
}

// TestAdvanceNIgnoresHorizon is the point of the primitive: with a peer
// due long before the wait ends, the heap scheduler still commits the whole
// wait in one step, while the linear oracle commits one operation per call.
// Both end with the same clocks and counts.
func TestAdvanceNIgnoresHorizon(t *testing.T) {
	run := func(linear bool) (commits []int, clocks [2]Cycles, ops uint64) {
		SetForceLinearSchedulerForTest(linear)
		defer SetForceLinearSchedulerForTest(false)
		e, o := observed(3)
		waiter := e.Spawn("waiter", func(p *Proc) {
			left := 100
			for left > 0 {
				m := p.AdvanceN(50, left)
				commits = append(commits, m)
				left -= m
			}
		})
		peer := e.Spawn("peer", func(p *Proc) {
			for i := 0; i < 40; i++ {
				p.Advance(333)
			}
		})
		e.Run(-1)
		clocks = [2]Cycles{waiter.Clock(), peer.Clock()}
		e.Close()
		return commits, clocks, o.Snapshot().Counters["sim.ops"]
	}
	heapCommits, heapClocks, heapOps := run(false)
	linCommits, linClocks, linOps := run(true)
	if len(heapCommits) != 1 || heapCommits[0] != 100 {
		t.Fatalf("heap scheduler commits %v, want one commit of 100", heapCommits)
	}
	if len(linCommits) != 100 {
		t.Fatalf("linear scheduler made %d commits, want 100 single ops", len(linCommits))
	}
	if heapClocks != linClocks || heapOps != linOps {
		t.Fatalf("heap ended at %v with %d ops, linear at %v with %d", heapClocks, heapOps, linClocks, linOps)
	}
}
