// Package faults is a deterministic fault-injection framework: named
// injection points scattered through the service path (the job pool,
// the result cache, the HTTP submit handler, the simulation loop) that
// are inert in production and can be armed — programmatically in
// tests, or from a spec string like
//
//	MAPSD_FAULTS="jobs.run:panic:0.01,results.put:err:0.05,server.submit:delay=50ms:0.1"
//
// — to return errors, inject latency, or panic at a configured rate.
//
// The design contract is that a disarmed point costs one atomic load
// and a predicted branch, nothing else: Point.Hit is small enough to
// inline, so instrumenting a hot path (the simulation loop checks its
// point only at cancellation checkpoints) is free until someone arms
// it. The perf-regression gate (`make benchcheck`) verifies this.
//
// Firing decisions are deterministic: every armed point draws from its
// own SplitMix64 stream seeded from the package seed and the point
// name, so a chaos run with a fixed seed injects the same schedule of
// faults every time — the property that lets the chaos tests assert
// exact accounting instead of "roughly N".
//
// The package is stdlib-only and dependency-free so any layer can
// import it without cycles.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects what an armed point does when it fires.
type Mode uint8

// Injection modes.
const (
	// ModeErr makes the point return an *InjectedError.
	ModeErr Mode = iota + 1
	// ModePanic makes the point panic with an "injected panic" message.
	ModePanic
	// ModeDelay makes the point sleep for Injection.Delay, then
	// proceed normally.
	ModeDelay
)

// String names the mode as it appears in a fault spec.
func (m Mode) String() string {
	switch m {
	case ModeErr:
		return "err"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Injection describes what an armed point injects and how often.
type Injection struct {
	// Mode selects error, panic, or latency injection.
	Mode Mode
	// Delay is the injected latency; required for ModeDelay, ignored
	// otherwise.
	Delay time.Duration
	// Rate is the firing probability in [0, 1]. Zero means 1 (every
	// hit fires) so the common always-fire arm reads Injection{Mode: ModeErr}.
	Rate float64
}

// ErrInjected is the sentinel every injected error matches via
// errors.Is, so callers can distinguish injected faults from organic
// failures without string comparison.
var ErrInjected = errors.New("faults: injected error")

// InjectedError is the error an armed ModeErr point returns. It is
// transient by construction (retry frameworks should treat an injected
// fault like a recoverable blip, which is exactly what it simulates)
// and matches ErrInjected via errors.Is.
type InjectedError struct {
	// Point is the name of the injection point that fired.
	Point string
}

// Error renders the point name.
func (e *InjectedError) Error() string {
	return "faults: injected error at " + e.Point
}

// Is matches the package's ErrInjected sentinel.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Transient marks injected errors as retryable (see jobs.IsTransient).
func (e *InjectedError) Transient() bool { return true }

// Point is one named injection site. The zero value is not usable;
// get points through P, which registers them by name.
type Point struct {
	name string
	// armed is the fast-path gate: 0 disarmed, 1 armed. Hit loads it
	// and returns immediately when disarmed.
	armed atomic.Uint32
	fired atomic.Uint64

	mu  sync.Mutex
	inj Injection
	rng uint64 // SplitMix64 state; advanced under mu
}

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

// Fired returns how many injections this point has performed (errors
// returned, panics raised, delays slept) since the last Reset.
func (p *Point) Fired() uint64 { return p.fired.Load() }

// Hit is the injection site: call it where a fault could plausibly
// happen. Disarmed — the production state — it is a single atomic load
// and inlines into the caller. Armed, it consults the point's seeded
// random stream and either does nothing, sleeps (ModeDelay), returns
// an *InjectedError (ModeErr), or panics (ModePanic).
func (p *Point) Hit() error {
	if p.armed.Load() == 0 {
		return nil
	}
	return p.fire()
}

// fire is the armed slow path, kept out of Hit so Hit stays inlinable.
func (p *Point) fire() error {
	p.mu.Lock()
	inj := p.inj
	fires := true
	if inj.Rate > 0 && inj.Rate < 1 {
		fires = unitFloat(splitmix64(&p.rng)) < inj.Rate
	}
	p.mu.Unlock()
	if !fires {
		return nil
	}
	p.fired.Add(1)
	switch inj.Mode {
	case ModeDelay:
		time.Sleep(inj.Delay)
		return nil
	case ModePanic:
		panic("faults: injected panic at " + p.name)
	default:
		return &InjectedError{Point: p.name}
	}
}

// Arm configures the point and starts injecting. The firing stream is
// re-seeded from the package seed and the point name, so two Arm calls
// with the same seed replay the same schedule. Arm validates the
// injection: an unknown mode, a rate outside [0, 1], or a ModeDelay
// without a positive delay is rejected.
func (p *Point) Arm(inj Injection) error {
	switch inj.Mode {
	case ModeErr, ModePanic:
	case ModeDelay:
		if inj.Delay <= 0 {
			return fmt.Errorf("faults: %s: delay mode needs a positive delay", p.name)
		}
	default:
		return fmt.Errorf("faults: %s: unknown mode %v", p.name, inj.Mode)
	}
	if inj.Rate < 0 || inj.Rate > 1 {
		return fmt.Errorf("faults: %s: rate %v outside [0, 1]", p.name, inj.Rate)
	}
	p.mu.Lock()
	p.inj = inj
	p.rng = pointSeed(p.name)
	p.mu.Unlock()
	p.armed.Store(1)
	return nil
}

// Disarm stops injecting. The fired counter is preserved (Reset zeroes
// it), so post-run accounting can still read it.
func (p *Point) Disarm() { p.armed.Store(0) }

// Armed reports whether the point currently injects.
func (p *Point) Armed() bool { return p.armed.Load() != 0 }

// registry maps names to points. Points are created on first use and
// never removed, so a *Point can be cached in a package variable next
// to the code it instruments. Every instrumented package does exactly
// that, so a binary's registry holds all the points it links from
// package initialization on.
var (
	regMu sync.Mutex
	reg   = make(map[string]*Point)
	seed  atomic.Int64
)

// P returns the injection point registered under name, creating it
// (disarmed) on first use. Cache the result in a variable near the
// instrumented code; the map lookup is not meant for hot paths.
func P(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	p, ok := reg[name]
	if !ok {
		p = &Point{name: name}
		reg[name] = p
	}
	return p
}

// Seed sets the package seed that every subsequent Arm derives its
// firing stream from. Arm-then-Seed does not retroactively re-seed;
// set the seed first, then arm.
func Seed(s int64) { seed.Store(s) }

// pointSeed mixes the package seed with an FNV-1a hash of the point
// name so distinct points draw from decorrelated streams.
func pointSeed(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h ^ uint64(seed.Load())
}

// splitmix64 advances state and returns the next value of the
// canonical SplitMix64 stream (same generator internal/workload uses).
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unitFloat maps a uint64 onto [0, 1) with 53 random bits.
func unitFloat(v uint64) float64 {
	return float64(v>>11) / (1 << 53)
}

// DisarmAll disarms every registered point, leaving fired counters in
// place for post-run accounting.
func DisarmAll() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, p := range reg {
		p.Disarm()
	}
}

// Reset disarms every registered point and zeroes its fired counter —
// the between-tests clean slate.
func Reset() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, p := range reg {
		p.Disarm()
		p.fired.Store(0)
	}
}

// Names lists every registered point name, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Armed lists the names of currently armed points, sorted.
func Armed() []string {
	regMu.Lock()
	defer regMu.Unlock()
	var names []string
	for name, p := range reg {
		if p.Armed() {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Snapshot returns the fired count of every point that has injected at
// least once, keyed by point name — the numbers behind the
// mapsd_faults_injected_total metric family.
func Snapshot() map[string]uint64 {
	regMu.Lock()
	defer regMu.Unlock()
	out := make(map[string]uint64)
	for name, p := range reg {
		if n := p.Fired(); n > 0 {
			out[name] = n
		}
	}
	return out
}

// ArmSpec parses and arms a comma-separated fault spec. Each entry is
//
//	point:mode[:rate]
//
// where point is a registered injection-point name, mode is "err",
// "panic", or "delay=DURATION" (Go duration syntax), and the optional
// rate is a firing probability in [0, 1] (default 1, i.e. every hit
// fires). Examples:
//
//	jobs.run:panic:0.01
//	results.put:err:0.05
//	server.submit:delay=50ms:0.1
//	sim.step:err
//
// A malformed entry, or a point name no linked package registered,
// rejects the whole spec and arms nothing; the unknown-name error
// lists the registered names.
func ArmSpec(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	type arm struct {
		name string
		inj  Injection
	}
	var arms []arm
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return fmt.Errorf("faults: bad spec entry %q (want point:mode[:rate])", entry)
		}
		name := strings.TrimSpace(parts[0])
		if name == "" {
			return fmt.Errorf("faults: bad spec entry %q: empty point name", entry)
		}
		var inj Injection
		mode := strings.TrimSpace(parts[1])
		switch {
		case mode == "err":
			inj.Mode = ModeErr
		case mode == "panic":
			inj.Mode = ModePanic
		case strings.HasPrefix(mode, "delay="):
			d, err := time.ParseDuration(strings.TrimPrefix(mode, "delay="))
			if err != nil {
				return fmt.Errorf("faults: bad spec entry %q: %v", entry, err)
			}
			inj.Mode = ModeDelay
			inj.Delay = d
		default:
			return fmt.Errorf("faults: bad spec entry %q: unknown mode %q", entry, mode)
		}
		if len(parts) == 3 {
			rate, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
			if err != nil {
				return fmt.Errorf("faults: bad spec entry %q: %v", entry, err)
			}
			inj.Rate = rate
		}
		arms = append(arms, arm{name, inj})
	}
	// Validate everything before arming anything: a spec is atomic.
	for _, a := range arms {
		regMu.Lock()
		_, known := reg[a.name]
		regMu.Unlock()
		if !known {
			return fmt.Errorf("faults: unknown point %q (registered: %s)", a.name, strings.Join(Names(), ", "))
		}
		probe := Point{name: a.name}
		if err := probe.Arm(a.inj); err != nil {
			return err
		}
	}
	for _, a := range arms {
		if err := P(a.name).Arm(a.inj); err != nil {
			return err
		}
	}
	return nil
}
