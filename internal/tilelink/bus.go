// Package tilelink models the quantum controller cache interface of
// Figure 5: a TileLink-style split-transaction system bus with 5-bit
// source tags and out-of-order responses, the Reorder Buffer Queue (RBQ)
// that realigns them, and the soft memory barrier that provides
// fine-grained quantum-host synchronization (§6.2). Figure 5's Write
// Buffer Queue is not modelled: no machine here splits bus beats into
// 32-bit cache writes.
//
// The model is cycle-stepped: callers drive Tick once per bus cycle.
// Response latency is deterministic pseudo-random within a configured
// window, so experiments are reproducible while still exercising
// out-of-order delivery.
package tilelink

import (
	"fmt"
	"math/rand"

	"qtenon/internal/rng"

	"qtenon/internal/hw"
	"qtenon/internal/metrics"
)

// Config sets bus geometry and latency.
type Config struct {
	Tags       int // outstanding-request tags (paper: 32, 5-bit)
	BeatBytes  int // bytes moved per beat (paper: 256-bit bus → 32)
	MinLatency int // response latency lower bound, cycles
	MaxLatency int // response latency upper bound, cycles
	Seed       int64
}

// DefaultConfig returns the paper's geometry: 32 tags, 256-bit beats, and
// an L2-class latency window.
func DefaultConfig() Config {
	return Config{Tags: 32, BeatBytes: 32, MinLatency: 12, MaxLatency: 28, Seed: 1}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Tags <= 0 || c.Tags > 32:
		return fmt.Errorf("tilelink: tag count %d outside (0,32]", c.Tags)
	case c.BeatBytes <= 0:
		return fmt.Errorf("tilelink: non-positive beat size")
	case c.MinLatency <= 0 || c.MaxLatency < c.MinLatency:
		return fmt.Errorf("tilelink: bad latency window [%d,%d]", c.MinLatency, c.MaxLatency)
	}
	return nil
}

// Request is one bus transaction (a GET or PUT of one beat).
type Request struct {
	Addr  uint64
	Write bool
	Data  uint64 // payload for writes; token for reads
}

// Response pairs a completed request with its tag.
type Response struct {
	Tag  int
	Req  Request
	Data uint64
}

type inflight struct {
	resp    Response
	readyAt int64
}

// Bus is the split-transaction system bus. Requests acquire a tag and
// complete after a pseudo-random latency; completions are delivered in
// ready order, which is generally NOT issue order.
type Bus struct {
	cfg  Config
	tags *hw.TagPool
	rng  *rand.Rand
	now  int64
	fly  []inflight
	// ready is a FIFO of completed responses; readyHead indexes the next
	// one to deliver, and the storage is recycled whenever the queue
	// drains (every Tick/Pop cycle reuses the same backing arrays).
	ready     []Response
	readyHead int
	// doneScratch collects each Tick's completions before the delivery
	// shuffle.
	doneScratch []Response

	cIssued, cCompleted, cBusy *metrics.Counter
	gOutstanding               *metrics.Gauge
}

// Instrument attaches the bus to a metrics registry: beats issued and
// completed, cycles with in-flight traffic, and the outstanding-request
// gauge (high-water = peak tag pressure). Nil registry detaches.
func (b *Bus) Instrument(reg *metrics.Registry) {
	b.cIssued = reg.Counter("tilelink.beats_issued")
	b.cCompleted = reg.Counter("tilelink.beats_completed")
	b.cBusy = reg.Counter("tilelink.busy_cycles")
	b.gOutstanding = reg.Gauge("tilelink.outstanding")
}

// NewBus returns a bus with the given configuration.
func NewBus(cfg Config) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Bus{
		cfg:  cfg,
		tags: hw.NewTagPool(cfg.Tags),
		rng:  rng.New(cfg.Seed),
	}, nil
}

// Now reports the bus cycle counter.
func (b *Bus) Now() int64 { return b.now }

// TrySubmit issues a request if a tag is free, returning the assigned tag.
// At most one request issues per cycle (one A-channel beat).
func (b *Bus) TrySubmit(req Request) (tag int, ok bool) {
	tag, ok = b.tags.Acquire()
	if !ok {
		return 0, false
	}
	lat := b.cfg.MinLatency
	if span := b.cfg.MaxLatency - b.cfg.MinLatency; span > 0 {
		lat += b.rng.Intn(span + 1)
	}
	data := req.Data
	if !req.Write {
		// Model memory contents as a hash of the address so reads return
		// stable, checkable data.
		data = req.Addr*0x9e3779b97f4a7c15 + 0x12345
	}
	b.fly = append(b.fly, inflight{
		resp:    Response{Tag: tag, Req: req, Data: data},
		readyAt: b.now + int64(lat),
	})
	b.cIssued.Inc()
	b.gOutstanding.Set(int64(len(b.fly)))
	return tag, true
}

// Tick advances one cycle and moves newly completed requests to the ready
// list (out of order: among simultaneously ready requests the delivery
// order is randomized).
func (b *Bus) Tick() {
	b.now++
	if len(b.fly) > 0 {
		b.cBusy.Inc()
	}
	// Partition in place: the keep-cursor never passes the read cursor,
	// so compacting into b.fly[:0] while iterating is safe and Tick does
	// not allocate in steady state.
	done := b.doneScratch[:0]
	rest := b.fly[:0]
	for _, f := range b.fly {
		if f.readyAt <= b.now {
			done = append(done, f.resp)
		} else {
			rest = append(rest, f)
		}
	}
	b.fly = rest
	b.doneScratch = done
	b.rng.Shuffle(len(done), func(i, j int) { done[i], done[j] = done[j], done[i] })
	b.ready = append(b.ready, done...)
}

// PopResponse delivers one completed response (completion order) and
// releases its tag.
func (b *Bus) PopResponse() (Response, bool) {
	if b.readyHead >= len(b.ready) {
		return Response{}, false
	}
	r := b.ready[b.readyHead]
	b.readyHead++
	if b.readyHead == len(b.ready) {
		b.ready = b.ready[:0]
		b.readyHead = 0
	}
	b.tags.Release(r.Tag)
	b.cCompleted.Inc()
	return r, true
}
