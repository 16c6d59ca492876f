package sim

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestSpawnAtDelaysFirstOp(t *testing.T) {
	e := NewEngine(1)
	var first Cycles = -1
	e.SpawnAt("late", 500, func(p *Proc) {
		first = p.Now()
	})
	e.Run(-1)
	e.Close()
	if first != 500 {
		t.Fatalf("first op at %d, want 500", first)
	}
}

func TestSpawnAtNegativeClampsToZero(t *testing.T) {
	e := NewEngine(1)
	var first Cycles = -1
	e.SpawnAt("neg", -10, func(p *Proc) { first = p.Now() })
	e.Run(-1)
	e.Close()
	if first != 0 {
		t.Fatalf("first op at %d, want 0", first)
	}
}

func TestActorsListingAndLive(t *testing.T) {
	e := NewEngine(2)
	e.Spawn("b-actor", func(p *Proc) { p.Advance(5) })
	e.Spawn("a-actor", func(p *Proc) {
		for {
			p.Advance(5)
		}
	})
	names := e.Actors()
	if len(names) != 2 || names[0] != "a-actor" || names[1] != "b-actor" {
		t.Fatalf("actors %v", names)
	}
	e.Run(100)
	if e.Live() != 1 {
		t.Fatalf("live %d, want 1 (only the spinner)", e.Live())
	}
	e.Close()
}

func TestCloseTwiceIsSafe(t *testing.T) {
	e := NewEngine(3)
	e.Spawn("s", func(p *Proc) {
		for {
			p.Advance(1)
		}
	})
	e.Run(10)
	e.Close()
	e.Close()
}

func TestSpawnAfterClosePanics(t *testing.T) {
	e := NewEngine(4)
	e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("spawn after close accepted")
		}
	}()
	e.Spawn("late", func(p *Proc) {})
}

func TestRunAfterClosePanics(t *testing.T) {
	e := NewEngine(5)
	e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("run after close accepted")
		}
	}()
	e.Run(-1)
}

func TestAdvanceMinimumOneCycle(t *testing.T) {
	e := NewEngine(6)
	var times []Cycles
	e.Spawn("z", func(p *Proc) {
		for i := 0; i < 3; i++ {
			times = append(times, p.Now())
			p.Advance(0) // must still move time forward
		}
	})
	e.Run(-1)
	e.Close()
	if times[1] != 1 || times[2] != 2 {
		t.Fatalf("zero-advance did not enforce minimum: %v", times)
	}
}

func TestActorAccessors(t *testing.T) {
	e := NewEngine(7)
	a := e.Spawn("worker", func(p *Proc) {
		if p.Name() != "worker" {
			t.Errorf("proc name %q", p.Name())
		}
		p.Advance(42)
	})
	if a.Name() != "worker" {
		t.Fatalf("actor name %q", a.Name())
	}
	e.Run(-1)
	if !a.Done() {
		t.Fatal("actor not done")
	}
	if a.Clock() != 42 {
		t.Fatalf("final clock %d", a.Clock())
	}
	e.Close()
}

func TestSpawnDuringPausedRun(t *testing.T) {
	e := NewEngine(8)
	count := 0
	e.Spawn("first", func(p *Proc) {
		for i := 0; i < 4; i++ {
			count++
			p.Advance(100)
		}
	})
	e.Run(150)
	// A new actor spawned mid-simulation starts at cycle 0 but the engine
	// keeps global order: it catches up before "first" continues.
	var secondFirstOp Cycles = -1
	e.Spawn("second", func(p *Proc) {
		secondFirstOp = p.Now()
		p.Advance(1)
	})
	e.Run(-1)
	e.Close()
	if secondFirstOp != 0 {
		t.Fatalf("late-spawned actor first op at %d", secondFirstOp)
	}
	if count != 4 {
		t.Fatalf("first actor ran %d iterations", count)
	}
}

// TestGaussMatchesMaxMinClamp: Gauss clamps with two comparisons, which
// must give what math.Max(lo, math.Min(hi, v)) gives, draw for draw,
// whatever the mean and sigma, negative sigma included.
func TestGaussMatchesMaxMinClamp(t *testing.T) {
	for _, ms := range [][2]float64{{250, 10}, {0, 8}, {5, 3}, {-40, 10}, {100, 0}, {100, -5}, {0.5, 0.2}} {
		mean, sigma := ms[0], ms[1]
		got, want := rand.New(rand.NewPCG(3, 4)), rand.New(rand.NewPCG(3, 4))
		for i := 0; i < 2000; i++ {
			v := want.NormFloat64()*sigma + mean
			v = math.Max(mean-4*sigma, math.Min(mean+4*sigma, v))
			if v < 0 {
				v = 0
			}
			if g, w := Gauss(got, mean, sigma), Cycles(math.Round(v)); g != w {
				t.Fatalf("Gauss(%v, %v) draw %d = %d, max/min clamp gives %d", mean, sigma, i, g, w)
			}
		}
	}
}
