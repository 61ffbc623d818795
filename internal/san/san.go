// Package san is the simsan runtime invariant sanitizer (DESIGN.md
// §10): build-tag-gated dynamic checks of invariants that a test cannot
// observe from outside a component. Build with `-tags=simsan` to arm
// it; in ordinary builds the Enabled constant is false and every check
// — guarded at its call site by `if san.Enabled` — is eliminated by the
// compiler, so the hot paths carry zero overhead.
//
// Three check families live behind the tag:
//
//   - scheduler causality (internal/sim): no popped event may precede
//     the engine clock, and the event heap's shape is audited on every
//     pop;
//   - scratch-arena canaries (internal/qsim, internal/tilelink): each
//     Append*/…Reuse handout stamps a canary into the buffer's spare
//     capacity; the next handout of the same backing array verifies it,
//     so a stale alias that wrote into recycled arena storage panics
//     with the component named instead of silently corrupting results;
//   - metrics monotonicity (internal/metrics): counters and timers
//     reject negative deltas, gauges audit their high-water marks.
//
// Every violation panics via Failf with a "simsan: <component>: …"
// message so the failing subsystem is named in the first line of the
// crash.
package san

import (
	"fmt"
	"sync"
	"unsafe"
)

// Failf reports an invariant violation by panicking with a message that
// names the offending component. It is unconditional: callers gate on
// Enabled, which keeps production builds free of both the check and the
// message formatting.
func Failf(component, format string, args ...any) {
	panic("simsan: " + component + ": " + fmt.Sprintf(format, args...))
}

// canary returns the spare-capacity stamp — a bit pattern (and, as a
// float64, a value around 1.3e19) no qtenon kernel produces. It goes
// through a value conversion because untyped-constant conversions to a
// type parameter are rejected when the constant overflows one member of
// the type set's default type.
func canary[T Elem]() T {
	v := uint64(0xBADC0FFEE0DDF00D)
	return T(v)
}

// Elem are the element types of the scratch buffers the arenas recycle.
type Elem interface{ ~uint64 | ~float64 }

// claim records the canary planted at an arena's last handout of one
// backing array. keep pins the array: while a claim is live the runtime
// cannot recycle its address, so the address-keyed registry can never
// mistake a fresh allocation for a previously claimed buffer.
type claim struct {
	component string
	idx       int
	keep      unsafe.Pointer
}

// claims maps backing-array addresses to their live claim.
var claims sync.Map // uintptr → claim

// Plant stamps a canary into the last spare-capacity slot of a scratch
// buffer the arena just handed out (the slot is beyond len, invisible
// to the borrower) and registers the claim. A buffer with no spare
// capacity cannot carry a canary; any stale claim for it is dropped.
//
// The borrower owns s[:len] until the next handout; the canary detects
// the aliasing bug class where a slice retained from a previous borrow
// is appended to — or written through at full capacity — after the
// arena has moved on.
func Plant[T Elem](component string, s []T) {
	if !Enabled || cap(s) == 0 {
		return
	}
	base := unsafe.Pointer(unsafe.SliceData(s))
	idx := cap(s) - 1
	if idx < len(s) {
		claims.Delete(uintptr(base))
		return
	}
	s[:cap(s)][idx] = canary[T]()
	claims.Store(uintptr(base), claim{component: component, idx: idx, keep: base})
}

// Verify checks — and retires — the canary planted at the previous
// handout of s's backing array, if any. The arena calls it on the
// recycled dst before overwriting; a clobbered canary means some alias
// retained from an earlier borrow wrote into storage the arena had
// reclaimed.
func Verify[T Elem](component string, s []T) {
	if !Enabled || cap(s) == 0 {
		return
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	v, ok := claims.LoadAndDelete(base)
	if !ok {
		return
	}
	c := v.(claim)
	if c.idx >= cap(s) {
		return
	}
	if s[:cap(s)][c.idx] != canary[T]() {
		Failf(component, "scratch canary planted by %s was clobbered (spare slot %d of the recycled buffer): an alias retained from a previous borrow wrote into arena storage", c.component, c.idx)
	}
}
