package adapt

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

func testAllocator(t *testing.T, magSize int) *core.Allocator {
	t.Helper()
	return core.New(core.Config{
		Processors:   4,
		DescStripes:  4,
		MagazineSize: magSize,
		Adapt:        true,
		Telemetry:    core.NewRecorder(telemetry.Config{}),
		HeapConfig:   mem.Config{SegmentWordsLog2: 18, TotalWordsLog2: 28, Arenas: 4},
	})
}

func TestNewRequiresAdaptAndTelemetry(t *testing.T) {
	plain := core.New(core.Config{Processors: 1,
		HeapConfig: mem.Config{SegmentWordsLog2: 18, TotalWordsLog2: 28}})
	if _, err := New(plain, Config{}); err == nil {
		t.Error("New accepted a non-adaptive allocator")
	}
	deaf := core.New(core.Config{Processors: 1, Adapt: true,
		HeapConfig: mem.Config{SegmentWordsLog2: 18, TotalWordsLog2: 28}})
	if _, err := New(deaf, Config{}); err == nil {
		t.Error("New accepted an allocator without telemetry")
	}
}

// TestControllerStepApplies: a Step with a policy that always acts must
// move the knob, log the decision, and count it.
func TestControllerStepApplies(t *testing.T) {
	a := testAllocator(t, 8)
	c, err := New(a, Config{Policy: &Exerciser{Caps: []int{64}}})
	if err != nil {
		t.Fatal(err)
	}
	th := a.Thread()
	defer th.Unregister()
	p, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	th.Free(p)
	if n := c.Step(); n != 1 {
		t.Fatalf("Step applied %d actions, want 1", n)
	}
	if got := a.MagazineCap(0); got != 64 {
		t.Errorf("MagazineCap(0) = %d after step, want 64", got)
	}
	if c.Steps() != 1 || c.DecisionCount() != 1 {
		t.Errorf("Steps/DecisionCount = %d/%d, want 1/1", c.Steps(), c.DecisionCount())
	}
	ds := c.Decisions(10)
	if len(ds) != 1 {
		t.Fatalf("Decisions returned %d records, want 1", len(ds))
	}
	d := ds[0]
	if d.Kind != KindMagCap || d.Reason != ReasonExercise || d.Class != -1 ||
		d.From != 8 || d.To != 64 || d.Err {
		t.Errorf("decision = %+v", d)
	}
	if !strings.Contains(d.String(), "magcap") || !strings.Contains(d.String(), "exercise") {
		t.Errorf("String() = %q", d.String())
	}
}

// TestControllerStartStop: the loop runs on its interval and Stop is
// idempotent and leaves the allocator checkable.
func TestControllerStartStop(t *testing.T) {
	a := testAllocator(t, 8)
	c, err := New(a, Config{Interval: time.Millisecond, Policy: &Exerciser{Rebind: true}})
	if err != nil {
		t.Fatal(err)
	}
	th := a.Thread()
	c.Start()
	deadline := time.Now().Add(5 * time.Second)
	for c.Steps() < 3 {
		p, err := th.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		th.Free(p)
		if time.Now().After(deadline) {
			t.Fatalf("controller made %d steps in 5s", c.Steps())
		}
	}
	c.Stop()
	c.Stop() // idempotent
	steps := c.Steps()
	time.Sleep(5 * time.Millisecond)
	if c.Steps() != steps {
		t.Error("controller still stepping after Stop")
	}
	th.Unregister()
	if err := a.CheckInvariants(-1); err != nil {
		t.Fatal(err)
	}
}

func sample(delta telemetry.Snapshot, knobs Knobs, cen *census.Census) Sample {
	return Sample{Interval: time.Second, Delta: delta, Census: cen, Knobs: knobs}
}

// TestHysteresisGrow: a sustained high miss rate must double the cap
// after Confirm samples, then cool down.
func TestHysteresisGrow(t *testing.T) {
	h := &Hysteresis{Confirm: 2, Cooldown: 2}
	hot := telemetry.Snapshot{MagHits: 800, MagMisses: 200}
	hot.Mallocs = 1000
	hot.Frees = 1000
	knobs := Knobs{MagCaps: []int{16}}
	if acts := h.Decide(sample(hot, knobs, nil)); len(acts) != 0 {
		t.Fatalf("acted after 1 sample: %+v", acts)
	}
	acts := h.Decide(sample(hot, knobs, nil))
	if len(acts) != 1 || acts[0].Kind != KindMagCap || acts[0].Cap != 32 {
		t.Fatalf("second sample: %+v, want grow to 32", acts)
	}
	if acts[0].Reason != ReasonHighMissRate {
		t.Errorf("reason = %v", acts[0].Reason)
	}
	// Cooldown: the same signal is ignored for Cooldown samples.
	for i := 0; i < 2; i++ {
		if acts := h.Decide(sample(hot, knobs, nil)); len(acts) != 0 {
			t.Fatalf("acted during cooldown: %+v", acts)
		}
	}
}

// TestHysteresisGrowOnRetries: with caching disabled (no misses), a
// high retry rate alone must still grow, starting from MinCap.
func TestHysteresisGrowOnRetries(t *testing.T) {
	h := &Hysteresis{Confirm: 1}
	d := telemetry.Snapshot{TotalRetries: 500}
	d.Mallocs = 2000
	d.Frees = 2000
	acts := h.Decide(sample(d, Knobs{MagCaps: []int{0}}, nil))
	if len(acts) != 1 || acts[0].Cap != 8 || acts[0].Reason != ReasonHighRetryRate {
		t.Fatalf("acts = %+v, want grow to MinCap 8 on retries", acts)
	}
}

// TestHysteresisShrink: high cached fraction at a quiet retry rate must
// halve the cap.
func TestHysteresisShrink(t *testing.T) {
	h := &Hysteresis{Confirm: 1}
	d := telemetry.Snapshot{MagHits: 3000, MagMisses: 10}
	d.Mallocs = 3010
	d.Frees = 3000
	cen := &census.Census{}
	cen.Totals.BlocksUsed = 1000
	cen.Totals.MagazineCached = 600
	acts := h.Decide(sample(d, Knobs{MagCaps: []int{64}}, cen))
	if len(acts) != 1 || acts[0].Cap != 32 || acts[0].Reason != ReasonHighCached {
		t.Fatalf("acts = %+v, want shrink to 32 on cached fraction", acts)
	}
}

// TestHysteresisConflictCancels: simultaneous grow and shrink evidence
// must do nothing.
func TestHysteresisConflictCancels(t *testing.T) {
	h := &Hysteresis{Confirm: 1}
	d := telemetry.Snapshot{MagHits: 500, MagMisses: 500, TotalRetries: 1000}
	d.Mallocs = 1000
	d.Frees = 1000
	cen := &census.Census{}
	cen.Totals.BlocksUsed = 100
	cen.Totals.MagazineCached = 90
	for i := 0; i < 4; i++ {
		if acts := h.Decide(sample(d, Knobs{MagCaps: []int{64}}, cen)); len(acts) != 0 {
			t.Fatalf("conflicting sample %d acted: %+v", i, acts)
		}
	}
}

// TestHysteresisIdleDecays: votes gathered under load must not carry
// across an idle gap.
func TestHysteresisIdleDecays(t *testing.T) {
	h := &Hysteresis{Confirm: 2}
	hot := telemetry.Snapshot{MagHits: 100, MagMisses: 900}
	hot.Mallocs = 5000
	hot.Frees = 5000
	knobs := Knobs{MagCaps: []int{16}}
	h.Decide(sample(hot, knobs, nil)) // vote 1 of 2
	var idle telemetry.Snapshot
	h.Decide(sample(idle, knobs, nil)) // idle: decay
	if acts := h.Decide(sample(hot, knobs, nil)); len(acts) != 0 {
		t.Fatalf("acted with decayed votes: %+v", acts)
	}
}

// TestHysteresisStripeSkew: descriptor contention plus freelist
// imbalance must rebind the dry stripe's threads to the rich stripe.
func TestHysteresisStripeSkew(t *testing.T) {
	h := &Hysteresis{Confirm: 1}
	d := telemetry.Snapshot{
		TotalRetries: 600,
		Retries:      map[string]uint64{"desc-alloc": 400, "desc-retire": 200},
	}
	d.Mallocs = 2000
	d.Frees = 2000
	knobs := Knobs{
		MagCaps:    []int{8},
		Stripes:    4,
		StripeFree: []uint64{0, 2, 3, 100},
		Bindings: []core.ThreadBinding{
			{ID: 0, Stripe: 0, Arena: 0},
			{ID: 1, Stripe: 1, Arena: 1},
		},
	}
	acts := h.Decide(sample(d, knobs, nil))
	if len(acts) != 1 {
		t.Fatalf("acts = %+v, want one rebind", acts)
	}
	a := acts[0]
	if a.Kind != KindStripe || a.Reason != ReasonStripeSkew || a.Thread != 0 || a.Target != 3 {
		t.Errorf("rebind = %+v, want thread 0 -> stripe 3", a)
	}
}

// TestLogWraparoundAndTorn: the ring keeps only the newest records and
// concurrent readers never see torn ones.
func TestLogWraparound(t *testing.T) {
	l := newLog(4)
	for i := 0; i < 10; i++ {
		l.record(Decision{Kind: KindMagCap, Class: -1, From: int64(i), To: int64(i + 1)})
	}
	if l.Count() != 10 {
		t.Fatalf("Count = %d, want 10", l.Count())
	}
	ds := l.Tail(100)
	if len(ds) != 4 {
		t.Fatalf("Tail returned %d, want ring size 4", len(ds))
	}
	for i, d := range ds {
		if want := uint64(7 + i); d.Seq != want {
			t.Errorf("record %d Seq = %d, want %d", i, d.Seq, want)
		}
		if d.To != d.From+1 {
			t.Errorf("record %d torn: From %d To %d", i, d.From, d.To)
		}
	}
	if got := l.Tail(2); len(got) != 2 || got[1].Seq != 10 {
		t.Errorf("Tail(2) = %+v", got)
	}
}

// TestLogConcurrent hammers the ring with a writer while readers drain
// it; under -race this is the seqlock's memory-ordering check. Every
// record read must be internally consistent (To == From+1).
func TestLogConcurrent(t *testing.T) {
	l := newLog(8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, d := range l.Tail(8) {
					if d.To != d.From+1 {
						t.Errorf("torn record: %+v", d)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		l.record(Decision{Kind: KindStripe, Thread: uint64(i), From: int64(i), To: int64(i + 1)})
	}
	close(stop)
	wg.Wait()
}

// TestExerciserCycles: the churn policy cycles caps and advances every
// binding round-robin.
func TestExerciserCycles(t *testing.T) {
	e := &Exerciser{Caps: []int{4, 32}, Rebind: true}
	knobs := Knobs{
		MagCaps: []int{8}, Stripes: 4, Arenas: 2,
		Bindings: []core.ThreadBinding{{ID: 7, Stripe: 3, Arena: 1}},
	}
	acts := e.Decide(sample(telemetry.Snapshot{}, knobs, nil))
	if len(acts) != 3 {
		t.Fatalf("acts = %+v, want cap + stripe + arena", acts)
	}
	if acts[0].Cap != 4 || acts[1].Target != 0 || acts[2].Target != 0 {
		t.Errorf("acts = %+v, want cap 4, stripe 3->0, arena 1->0", acts)
	}
	acts = e.Decide(sample(telemetry.Snapshot{}, knobs, nil))
	if acts[0].Cap != 32 {
		t.Errorf("second cycle cap = %d, want 32", acts[0].Cap)
	}
}

// TestControllerHysteresisEndToEnd drives a real allocator through a
// cache-hostile then cache-friendly load with Step (deterministic, no
// goroutine) and checks the default policy moves the cap in both
// directions.
func TestControllerHysteresisEndToEnd(t *testing.T) {
	a := testAllocator(t, 8)
	h := &Hysteresis{MinOps: 1, Confirm: 1, Cooldown: 0}
	c, err := New(a, Config{Policy: h})
	if err != nil {
		t.Fatal(err)
	}
	th := a.Thread()
	defer th.Unregister()
	// Phase 1: batch churn — allocate a big batch, free it all. With
	// cap 8 almost every malloc in the batch misses, so the miss rate
	// grows the cap.
	ptrs := make([]mem.Ptr, 0, 512)
	for round := 0; round < 10 && a.MagazineCap(0) <= 8; round++ {
		for i := 0; i < 512; i++ {
			p, err := th.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, p)
		}
		for _, p := range ptrs {
			th.Free(p)
		}
		ptrs = ptrs[:0]
		c.Step()
	}
	grown := a.MagazineCap(0)
	if grown <= 8 {
		t.Fatalf("no grow after batch churn; decisions: %+v", c.Decisions(16))
	}
	// Phase 2: pure pair workload — near-perfect hit rate, nearly every
	// used block sitting in a magazine. The cached fraction shrinks the
	// cap back down.
	for round := 0; round < 10 && a.MagazineCap(0) >= grown; round++ {
		for i := 0; i < 4000; i++ {
			p, err := th.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			th.Free(p)
		}
		c.Step()
	}
	if a.MagazineCap(0) >= grown {
		t.Fatalf("no shrink after pair phase; decisions: %+v", c.Decisions(16))
	}
	if err := a.CheckInvariants(-1); err != nil {
		t.Fatal(err)
	}
}
