package faults

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDisarmedHitIsNil(t *testing.T) {
	t.Cleanup(Reset)
	p := P("test.disarmed")
	for i := 0; i < 1000; i++ {
		if err := p.Hit(); err != nil {
			t.Fatalf("disarmed point injected: %v", err)
		}
	}
	if p.Fired() != 0 {
		t.Fatalf("disarmed point counted %d firings", p.Fired())
	}
}

func TestErrModeFiresEveryHit(t *testing.T) {
	t.Cleanup(Reset)
	p := P("test.err")
	if err := p.Arm(Injection{Mode: ModeErr}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		err := p.Hit()
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: got %v, want ErrInjected", i, err)
		}
		var inj *InjectedError
		if !errors.As(err, &inj) || inj.Point != "test.err" || !inj.Transient() {
			t.Fatalf("hit %d: bad injected error %#v", i, err)
		}
	}
	if p.Fired() != 10 {
		t.Fatalf("fired %d, want 10", p.Fired())
	}
	p.Disarm()
	if err := p.Hit(); err != nil {
		t.Fatalf("disarmed point still injecting: %v", err)
	}
}

func TestPanicMode(t *testing.T) {
	t.Cleanup(Reset)
	p := P("test.panic")
	if err := p.Arm(Injection{Mode: ModePanic}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("armed panic point did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "test.panic") {
			t.Fatalf("panic value %v does not name the point", r)
		}
		if p.Fired() != 1 {
			t.Fatalf("fired %d, want 1", p.Fired())
		}
	}()
	p.Hit()
}

func TestDelayMode(t *testing.T) {
	t.Cleanup(Reset)
	p := P("test.delay")
	if err := p.Arm(Injection{Mode: ModeDelay, Delay: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := p.Hit(); err != nil {
		t.Fatalf("delay mode returned error: %v", err)
	}
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Fatalf("hit returned after %v, want ≥ 20ms", d)
	}
	if p.Fired() != 1 {
		t.Fatalf("fired %d, want 1", p.Fired())
	}
}

// A fractional rate must fire deterministically given a seed: same
// seed, same schedule; and the firing fraction should be in the right
// neighborhood.
func TestRateIsSeededAndDeterministic(t *testing.T) {
	t.Cleanup(Reset)
	const n = 10_000
	run := func(seed int64) (fired uint64, schedule []bool) {
		Seed(seed)
		p := P("test.rate")
		p.fired.Store(0)
		if err := p.Arm(Injection{Mode: ModeErr, Rate: 0.3}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			schedule = append(schedule, p.Hit() != nil)
		}
		p.Disarm()
		return p.Fired(), schedule
	}
	fired1, sched1 := run(42)
	fired2, sched2 := run(42)
	if fired1 != fired2 {
		t.Fatalf("same seed fired %d then %d", fired1, fired2)
	}
	for i := range sched1 {
		if sched1[i] != sched2[i] {
			t.Fatalf("schedules diverge at hit %d", i)
		}
	}
	if frac := float64(fired1) / n; frac < 0.25 || frac > 0.35 {
		t.Fatalf("rate 0.3 fired fraction %v", frac)
	}
	fired3, _ := run(43)
	if fired3 == fired1 {
		t.Fatalf("different seeds produced identical counts (%d); suspicious", fired1)
	}
}

func TestArmValidation(t *testing.T) {
	t.Cleanup(Reset)
	p := P("test.validate")
	for _, inj := range []Injection{
		{},                          // no mode
		{Mode: ModeDelay},           // delay without duration
		{Mode: ModeErr, Rate: -0.1}, // negative rate
		{Mode: ModeErr, Rate: 1.5},  // rate > 1
		{Mode: Mode(99)},            // unknown mode
	} {
		if err := p.Arm(inj); err == nil {
			t.Errorf("Arm(%+v) accepted", inj)
		}
	}
	if p.Armed() {
		t.Fatal("rejected Arm left the point armed")
	}
}

func TestArmSpec(t *testing.T) {
	t.Cleanup(Reset)
	for _, name := range []string{"spec.a", "spec.b", "spec.c", "spec.d"} {
		P(name)
	}
	spec := "spec.a:panic:0.01, spec.b:err:0.05 ,spec.c:delay=50ms:0.1,spec.d:err"
	if err := ArmSpec(spec); err != nil {
		t.Fatal(err)
	}
	armed := Armed()
	for _, want := range []string{"spec.a", "spec.b", "spec.c", "spec.d"} {
		found := false
		for _, name := range armed {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s not armed (armed: %v)", want, armed)
		}
	}
	a, b, c := P("spec.a"), P("spec.b"), P("spec.c")
	if a.inj.Mode != ModePanic || a.inj.Rate != 0.01 {
		t.Errorf("spec.a: %+v", a.inj)
	}
	if b.inj.Mode != ModeErr || b.inj.Rate != 0.05 {
		t.Errorf("spec.b: %+v", b.inj)
	}
	if c.inj.Mode != ModeDelay || c.inj.Delay != 50*time.Millisecond || c.inj.Rate != 0.1 {
		t.Errorf("spec.c: %+v", c.inj)
	}
	if d := P("spec.d"); d.inj.Rate != 0 { // 0 means always fire
		t.Errorf("spec.d rate: %v", d.inj.Rate)
	}
	if err := P("spec.d").Hit(); !errors.Is(err, ErrInjected) {
		t.Errorf("spec.d did not fire: %v", err)
	}
}

func TestArmSpecRejectsMalformedAtomically(t *testing.T) {
	t.Cleanup(Reset)
	P("good.point")
	P("x")
	for _, spec := range []string{
		"justaname",
		"x:warp",
		"x:err:yes",
		"x:err:2.0",
		"x:delay=banana",
		"x:delay=-5ms",
		":err",
		"x:err:0.5:extra",
	} {
		if err := ArmSpec("good.point:err," + spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	if P("good.point").Armed() {
		t.Fatal("malformed spec armed its valid prefix; ArmSpec must be atomic")
	}
	if err := ArmSpec("  "); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	t.Cleanup(Reset)
	Reset()
	p := P("test.snapshot")
	if err := p.Arm(Injection{Mode: ModeErr}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p.Hit()
	}
	snap := Snapshot()
	if snap["test.snapshot"] != 3 {
		t.Fatalf("snapshot: %v", snap)
	}
	Reset()
	if p.Armed() || p.Fired() != 0 {
		t.Fatalf("Reset left point armed=%v fired=%d", p.Armed(), p.Fired())
	}
	if snap := Snapshot(); len(snap) != 0 {
		t.Fatalf("snapshot after reset: %v", snap)
	}
}

// The production invariant: a disarmed Hit is one atomic load. This
// benchmark exists so a regression (lock, map lookup, allocation) is
// visible; the real gate is `make benchcheck` on the simulation loop.
func BenchmarkDisarmedHit(b *testing.B) {
	p := P("bench.disarmed")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Hit(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestArmSpecRejectsUnknownPoint: a name no package registered (here,
// the retired epoch-parallel driver's sim.epoch) rejects the whole
// spec, arms nothing, and the error lists the registered names.
func TestArmSpecRejectsUnknownPoint(t *testing.T) {
	t.Cleanup(Reset)
	P("known.point")
	err := ArmSpec("known.point:err,sim.epoch:err")
	if err == nil {
		t.Fatal("spec naming an unregistered point accepted")
	}
	for _, want := range []string{`"sim.epoch"`, "known.point"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if armed := Armed(); len(armed) != 0 {
		t.Fatalf("rejected spec armed %v; ArmSpec must be atomic", armed)
	}
	for _, name := range Names() {
		if name == "sim.epoch" {
			t.Fatal("a rejected spec registered its unknown point")
		}
	}
}
