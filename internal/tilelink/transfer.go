package tilelink

import "fmt"

// TransferResult reports a completed multi-beat transfer.
type TransferResult struct {
	Cycles int64 // total bus cycles from first issue to last in-order pop
	Beats  int   // beats moved
	Data   []uint64
	// StallCycles counts cycles where issue was blocked on tags or the
	// order queue.
	StallCycles int64
}

// Transfer moves `beats` beats starting at addr through the bus with RBQ
// realignment, cycle-accurately, and returns the elapsed cycles. It is
// the timing core of q_set and q_acquire on datapath ❷: issue one beat
// per cycle while tags are available, deliver out-of-order completions
// into the RBQ, and retire strictly in order.
//
// For writes, data[i] supplies beat i's payload; for reads data may be
// nil and the returned Data holds the beats in order.
func Transfer(bus *Bus, rbq *RBQ, addr uint64, beats int, write bool, data []uint64) (TransferResult, error) {
	return TransferReuse(bus, rbq, addr, beats, write, data, nil)
}

// TransferReuse is Transfer with caller-recycled result storage: the
// returned TransferResult.Data is built by appending to dataBuf (pass a
// prior result's Data[:0] to run repeated transfers without allocating).
// The caller must not retain aliases of dataBuf across calls.
func TransferReuse(bus *Bus, rbq *RBQ, addr uint64, beats int, write bool, data, dataBuf []uint64) (TransferResult, error) {
	if beats <= 0 {
		return TransferResult{}, fmt.Errorf("tilelink: non-positive beat count %d", beats)
	}
	if write && len(data) < beats {
		return TransferResult{}, fmt.Errorf("tilelink: %d payload beats for %d-beat write", len(data), beats)
	}
	start := bus.Now()
	var res TransferResult
	res.Beats = beats
	res.Data = dataBuf
	issued, retired := 0, 0
	// Track tag→issue so RBQ delivery uses the bus response tag.
	for retired < beats {
		// Issue phase: one beat per cycle when resources allow.
		if issued < beats {
			var payload uint64
			if write {
				payload = data[issued]
			}
			req := Request{Addr: addr + uint64(issued*bus.cfg.BeatBytes), Write: write, Data: payload}
			if tag, ok := bus.TrySubmit(req); ok {
				if !rbq.PushOrder(tag) {
					// Order queue full: roll back is impossible in hardware,
					// so geometry must make this unreachable; treat as bug.
					return res, fmt.Errorf("tilelink: RBQ order queue overflow at beat %d", issued)
				}
				issued++
			} else {
				res.StallCycles++
			}
		}
		bus.Tick()
		// Deliver any completions.
		for {
			r, ok := bus.PopResponse()
			if !ok {
				break
			}
			if err := rbq.Deliver(r.Tag, r.Data); err != nil {
				return res, err
			}
		}
		// Retire in order.
		for {
			d, ok := rbq.Pop()
			if !ok {
				break
			}
			res.Data = append(res.Data, d)
			retired++
		}
	}
	res.Cycles = bus.Now() - start
	return res, nil
}

// StreamCycles estimates the steady-state cycles to move `beats` beats:
// max(beats, latency) plus pipeline fill. It is a closed-form
// cross-check that tests hold Transfer against; timing results always
// come from Transfer itself.
func StreamCycles(cfg Config, beats int) int64 {
	if beats <= 0 {
		return 0
	}
	avgLat := int64(cfg.MinLatency+cfg.MaxLatency) / 2
	issue := int64(beats) // one beat per cycle
	if int64(cfg.Tags) >= avgLat {
		return issue + avgLat // fully pipelined: drain latency once
	}
	// Tag-limited: each window of Tags beats costs ~latency cycles.
	windows := (int64(beats) + int64(cfg.Tags) - 1) / int64(cfg.Tags)
	return windows * avgLat
}
