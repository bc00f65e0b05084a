package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"drop=0.01,seed=7",
		"drop=0.01,dup=0.005,delay=0.02:50us,reorder=0.01,seed=7",
		"crash=3@2,stall=1@1:200us,watchdog=30s,seed=9",
		"drop=0.05,crash=3@2,crash=5@1,stall=2@3:1ms,seed=1",
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(String(%q) = %q): %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Errorf("round trip of %q: %+v != %+v", spec, p, q)
		}
	}
}

func TestParseCanonicalizesScheduleOrder(t *testing.T) {
	a, err := Parse("crash=5@2,crash=3@1,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("crash=3@1,crash=5@2,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("spelling order leaked into the plan: %+v != %+v", a, b)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"drop",               // not key=value
		"drop=x",             // not a number
		"drop=0.9",           // above the retransmission-safe cap
		"drop=-0.1",          // negative
		"warble=1",           // unknown field
		"crash=3",            // missing @STEP
		"crash=3@0",          // step below 1
		"stall=1@1",          // missing duration
		"stall=1@1:-5us",     // non-positive duration
		"delay=0.1:notaspan", // bad jitter bound
		"seed=notanumber",    // bad seed
		"watchdog=notaspan",  // bad watchdog
		"crash=-1@2,seed=3",  // negative rank
		"drop=0.1,drop=junk", // second occurrence still validated
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted an invalid spec", spec)
		}
	}
}

func TestZeroPlan(t *testing.T) {
	p, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if p.Enabled() || p.MessageFaults() {
		t.Errorf("empty spec produced an enabled plan: %+v", p)
	}
	in, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if in != nil {
		t.Fatal("zero plan must yield a nil injector")
	}
	// The entire nil-injector method set is safe and inert.
	if in.MessageFaults() || in.CrashAt(0, 1) || in.StallAt(0, 1) != 0 {
		t.Error("nil injector injected something")
	}
	if v := in.Verdict(1, 0, 1, 7, 1, 0); v != (Verdict{}) {
		t.Errorf("nil injector verdict %+v", v)
	}
}

// mustNew builds the injector of a known-good plan.
func mustNew(t *testing.T, p Plan) *Injector {
	t.Helper()
	in, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestVerdictDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, DropRate: 0.1, DupRate: 0.05, DelayRate: 0.1, ReorderRate: 0.05}
	a, b := mustNew(t, plan), mustNew(t, plan)
	other := mustNew(t, Plan{Seed: 43, DropRate: 0.1, DupRate: 0.05, DelayRate: 0.1, ReorderRate: 0.05})
	differs := false
	for seq := uint64(1); seq <= 2000; seq++ {
		va := a.Verdict(1, 0, 1, 7, seq, 0)
		if vb := b.Verdict(1, 0, 1, 7, seq, 0); va != vb {
			t.Fatalf("seq %d: same plan disagreed: %+v vs %+v", seq, va, vb)
		}
		if other.Verdict(1, 0, 1, 7, seq, 0) != va {
			differs = true
		}
		// Drop is exclusive: a lost attempt cannot also be duplicated,
		// delayed or reordered.
		if va.Drop && (va.Dup || va.Reorder || va.Delay != 0) {
			t.Fatalf("seq %d: drop verdict carries delivery faults: %+v", seq, va)
		}
	}
	if !differs {
		t.Error("changing the seed never changed a verdict")
	}
}

func TestVerdictRates(t *testing.T) {
	const trials = 50_000
	plan := Plan{Seed: 7, DropRate: 0.2, DelayRate: 0.1, MaxDelay: 50 * time.Microsecond}
	in := mustNew(t, plan)
	var drops, delays int
	for seq := uint64(1); seq <= trials; seq++ {
		v := in.Verdict(3, 2, 5, 11, seq, 0)
		if v.Drop {
			drops++
		}
		if v.Delay > 0 {
			delays++
			if v.Delay > plan.MaxDelay {
				t.Fatalf("seq %d: delay %v exceeds bound %v", seq, v.Delay, plan.MaxDelay)
			}
		}
	}
	if got := float64(drops) / trials; got < 0.18 || got > 0.22 {
		t.Errorf("drop rate %.4f far from 0.2", got)
	}
	if got := float64(delays) / trials; got < 0.08 || got > 0.12 {
		t.Errorf("delay rate %.4f far from 0.1", got)
	}
}

func TestVerdictChannelsIndependent(t *testing.T) {
	// Different flows, attempts and communicators must decide independently;
	// a retransmission in particular must not inherit its first attempt's
	// drop fate, or a dropped message could never get through.
	in := mustNew(t, Plan{Seed: 1, DropRate: 0.5})
	same := 0
	const n = 1000
	for seq := uint64(1); seq <= n; seq++ {
		if in.Verdict(1, 0, 1, 7, seq, 0).Drop == in.Verdict(1, 0, 1, 7, seq, 1).Drop {
			same++
		}
	}
	if same == n {
		t.Error("attempt number never changed the drop fate")
	}
}

func TestCrashAndStallSchedule(t *testing.T) {
	in := mustNew(t, Plan{
		Crashes: []Crash{{Rank: 3, Step: 2}},
		Stalls:  []Stall{{Rank: 1, Step: 1, D: 100 * time.Microsecond}, {Rank: 1, Step: 1, D: 50 * time.Microsecond}},
	})
	if !in.CrashAt(3, 2) || in.CrashAt(3, 1) || in.CrashAt(2, 2) {
		t.Error("crash schedule misfired")
	}
	if got := in.StallAt(1, 1); got != 150*time.Microsecond {
		t.Errorf("stall durations on the same coordinate must sum: got %v", got)
	}
	if in.StallAt(1, 2) != 0 {
		t.Error("stall misfired at an unscheduled step")
	}
	if in.MessageFaults() {
		t.Error("a crash/stall-only plan must not force the sequenced transport")
	}
}

func TestValidateErrors(t *testing.T) {
	for name, p := range map[string]Plan{
		"drop above cap":    {DropRate: 0.6},
		"negative dup":      {DupRate: -0.1},
		"NaN delay":         {DelayRate: math.NaN()},
		"infinite reorder":  {ReorderRate: math.Inf(1)},
		"negative maxdelay": {DelayRate: 0.1, MaxDelay: -time.Second},
		"negative watchdog": {Watchdog: -time.Second},
		"crash step 0":      {Crashes: []Crash{{Rank: 1, Step: 0}}},
		"stall no duration": {Stalls: []Stall{{Rank: 1, Step: 1}}},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
		}
		if _, err := New(p); err == nil {
			t.Errorf("%s: New accepted %+v", name, p)
		}
	}
}

func TestEventKindString(t *testing.T) {
	want := map[EventKind]string{EventInject: "inject", EventDetect: "detect", EventRetry: "retry", EventRecover: "recover"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if !strings.Contains(EventKind(99).String(), "99") {
		t.Error("unknown EventKind should render its number")
	}
}
