// Package integrity is the data-plane ABFT substrate: it owns the
// detect → bounded-recompute → escalate recovery protocol that the
// checked NTT/RNS kernels run, the deterministic seeded bit-flip
// injector the tests and smoke drills drive corruption with, and the
// integrity/* counters every layer above reports.
//
// The checked kernels themselves live next to the math they verify
// (internal/ntt, internal/rns); this package only supplies policy and
// accounting, so it stays dependency-free below the kernel layer.
package integrity

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"crophe/internal/telemetry"
)

// DefaultMaxRecompute is how many times a checked kernel replays a
// mismatching unit from fresh scratch before escalating. Two replays
// separate transient flips (first replay verifies clean) from
// persistent corruption (every replay mismatches).
const DefaultMaxRecompute = 2

// Error is the typed escalation a checked kernel raises when recompute
// cannot clear a mismatch: the corruption is persistent, and the unit
// must be quarantined by the caller. It carries the fault seed per the
// faultseed convention so the failure replays deterministically.
type Error struct {
	Kernel   string // checked kernel that escalated, e.g. "ntt.Forward"
	Seed     int64  // fault seed of the injected corruption (0 if organic)
	Attempts int    // verification attempts, including recomputes
}

func (e *Error) Error() string {
	return fmt.Sprintf("integrity: %s mismatch persisted across %d attempts (fault seed %d)",
		e.Kernel, e.Attempts, e.Seed)
}

// Stats is a point-in-time snapshot of a Checker's counters.
type Stats struct {
	Checks     uint64 // verification passes run
	Detected   uint64 // mismatches caught
	Recomputed uint64 // units replayed from fresh scratch
	Escalated  uint64 // persistent mismatches raised as *Error
}

// Checker carries the recovery policy and counters through a set of
// checked kernel invocations. All methods are safe for concurrent use —
// batch kernels verify limbs in parallel.
type Checker struct {
	seed int64
	inj  *Injector

	checks     atomic.Uint64
	detected   atomic.Uint64
	recomputed atomic.Uint64
	escalated  atomic.Uint64
}

// Option configures a Checker.
type Option func(*Checker)

// WithInjector installs a corruption injector: checked kernels pass
// their freshly produced buffers through it before verifying, which is
// how tests and the SDC smoke drill exercise the full recovery path.
func WithInjector(in *Injector) Option {
	return func(c *Checker) { c.inj = in }
}

// NewChecker builds a checker whose escalations carry the given fault
// seed.
func NewChecker(seed int64, opts ...Option) *Checker {
	c := &Checker{seed: seed}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Seed returns the fault seed escalations are stamped with.
func (c *Checker) Seed() int64 { return c.seed }

// Checked counts one verification pass.
func (c *Checker) Checked() { c.checks.Add(1) }

// Detected counts one caught mismatch.
func (c *Checker) Detected() { c.detected.Add(1) }

// Recomputed counts one replay from fresh scratch.
func (c *Checker) Recomputed() { c.recomputed.Add(1) }

// Escalate counts an escalation and returns the typed error the kernel
// must surface. attempts is the total number of verification attempts.
func (c *Checker) Escalate(kernel string, attempts int) *Error {
	c.escalated.Add(1)
	return &Error{Kernel: kernel, Seed: c.seed, Attempts: attempts}
}

// Corrupt runs the installed injector over a freshly produced buffer,
// returning the number of bits flipped (0 with no injector — the
// production configuration).
func (c *Checker) Corrupt(buf []uint64) int {
	if c.inj == nil {
		return 0
	}
	return c.inj.Corrupt(buf)
}

// Stats snapshots the counters.
func (c *Checker) Stats() Stats {
	return Stats{
		Checks:     c.checks.Load(),
		Detected:   c.detected.Load(),
		Recomputed: c.recomputed.Load(),
		Escalated:  c.escalated.Load(),
	}
}

// EmitCounters publishes the counters under integrity/*.
func (c *Checker) EmitCounters(t *telemetry.Collector) {
	if !t.Enabled() {
		return
	}
	s := c.Stats()
	t.EmitCounter("integrity/checks", float64(s.Checks))
	t.EmitCounter("integrity/detected", float64(s.Detected))
	t.EmitCounter("integrity/recomputed", float64(s.Recomputed))
	t.EmitCounter("integrity/escalated", float64(s.Escalated))
}

// saltData is the injector's stream salt, following the fault package's
// per-dimension ASCII-tag convention ("data").
const saltData = 0x64617461

// Injector flips bits in kernel buffers deterministically: the same
// (seed, rate) over the same sequence of buffers always flips the same
// bits. Persist mode re-corrupts every replay — the stuck-cell model
// that forces the escalate leg of the recovery protocol.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	rate    float64
	persist bool
	armed   int // Corrupt calls remaining; -1 = unlimited
	flips   atomic.Uint64
}

// NewInjector builds an injector flipping each word with probability
// rate (clamped to [0, 1]).
func NewInjector(seed int64, rate float64) *Injector {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &Injector{rng: rand.New(rand.NewSource(seed ^ saltData)), rate: rate, armed: -1}
}

// Arm limits corruption to the next n Corrupt calls — the transient
// (single-event upset) model: the first attempt corrupts, the replay
// reads clean, and recovery succeeds deterministically.
func (in *Injector) Arm(n int) {
	in.mu.Lock()
	in.armed = n
	in.mu.Unlock()
}

// Persist switches the injector to the stuck-cell model: corruption
// recurs on recompute, so detection must escalate.
func (in *Injector) Persist(on bool) {
	in.mu.Lock()
	in.persist = on
	in.mu.Unlock()
}

// Persistent reports whether the stuck-cell model is active.
func (in *Injector) Persistent() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.persist
}

// Corrupt flips bits in buf per the configured rate and returns how
// many it flipped. In persist mode at least one bit always flips, so a
// replayed unit can never verify clean.
func (in *Injector) Corrupt(buf []uint64) int {
	if len(buf) == 0 {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.armed == 0 {
		return 0
	}
	if in.armed > 0 {
		in.armed--
	}
	n := 0
	for i := range buf {
		if in.rng.Float64() < in.rate {
			buf[i] ^= 1 << uint(in.rng.Intn(64))
			n++
		}
	}
	if n == 0 && in.persist {
		i := in.rng.Intn(len(buf))
		buf[i] ^= 1 << uint(in.rng.Intn(64))
		n = 1
	}
	in.flips.Add(uint64(n))
	return n
}

// FlipOne flips exactly one seeded bit in buf — the single-event-upset
// primitive of the detection-bound tests.
func (in *Injector) FlipOne(buf []uint64) (word int, bit uint) {
	in.mu.Lock()
	defer in.mu.Unlock()
	word = in.rng.Intn(len(buf))
	bit = uint(in.rng.Intn(64))
	buf[word] ^= 1 << bit
	in.flips.Add(1)
	return word, bit
}

// Flips reports the total bits flipped so far.
func (in *Injector) Flips() uint64 { return in.flips.Load() }
