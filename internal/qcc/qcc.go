// Package qcc implements the quantum controller cache: the new memory
// space Qtenon adds at the same hierarchy level as the host L1 (§5.1).
//
// The cache is organized as a 2-D space. The first dimension is five
// segments (.program, .pulse, .measure, .slt, .regfile; Table 2); the
// second divides per-qubit segments into qubit chunks with dedicated
// address ranges ("QAddresses"), so program entries never need to carry a
// qubit index — it is encoded by the address. The .slt and .pulse
// segments are private (hardware-managed); .program, .regfile and
// .measure are public.
package qcc

import (
	"fmt"

	"qtenon/internal/pulse"
)

// Segment names one of the five quantum controller cache segments.
type Segment uint8

// The five segments of Table 2.
const (
	SegProgram Segment = iota
	SegPulse
	SegMeasure
	SegSLT
	SegRegfile
	numSegments
)

var segmentNames = [numSegments]string{".program", ".pulse", ".measure", ".slt", ".regfile"}

// String returns the paper's dotted segment name.
func (s Segment) String() string {
	if s < numSegments {
		return segmentNames[s]
	}
	return fmt.Sprintf("segment(%d)", uint8(s))
}

// Public reports whether the segment is user-accessible. The paper keeps
// .slt and .pulse private: the SLT has no QAddress mapping at all and the
// pulse store would otherwise need three-way synchronization with
// .program and .slt (§5.1).
func (s Segment) Public() bool {
	switch s {
	case SegProgram, SegMeasure, SegRegfile:
		return true
	default:
		return false
	}
}

// Per-entry bit widths from Table 2.
const (
	ProgramEntryBits = 4 + 1 + 27 + 3 + 30 // type + reg_flag + data + status + qaddr = 65
	PulseEntryBits   = pulse.EntryBits     // 640
	MeasureEntryBits = 64
	SLTEntryBits     = 20 + 30 + 1 + 5 // tag + qaddr + valid + count = 56
	RegfileEntryBits = 32
)

// Config fixes the geometry of a quantum controller cache instance.
// DefaultConfig(64) reproduces Table 2 exactly.
type Config struct {
	NQubits        int
	ProgramEntries int // per qubit
	PulseEntries   int // per qubit
	MeasureEntries int // shared by all qubits
	RegfileEntries int // shared by all qubits
	SLTWays        int // per qubit
	SLTEntries     int // per way
}

// DefaultConfig returns the paper's geometry for the given qubit count.
func DefaultConfig(nqubits int) Config {
	return Config{
		NQubits:        nqubits,
		ProgramEntries: 1024,
		PulseEntries:   1024,
		MeasureEntries: 5120,
		RegfileEntries: 1024,
		SLTWays:        2,
		SLTEntries:     128,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.NQubits <= 0:
		return fmt.Errorf("qcc: non-positive qubit count %d", c.NQubits)
	case c.ProgramEntries <= 0 || c.PulseEntries <= 0 || c.MeasureEntries <= 0 ||
		c.RegfileEntries <= 0 || c.SLTWays <= 0 || c.SLTEntries <= 0:
		return fmt.Errorf("qcc: non-positive geometry field in %+v", c)
	}
	return nil
}

// SegmentBits reports the total storage of one segment in bits.
func (c Config) SegmentBits(s Segment) int64 {
	n := int64(c.NQubits)
	switch s {
	case SegProgram:
		return n * int64(c.ProgramEntries) * ProgramEntryBits
	case SegPulse:
		return n * int64(c.PulseEntries) * PulseEntryBits
	case SegMeasure:
		return int64(c.MeasureEntries) * MeasureEntryBits
	case SegSLT:
		return n * int64(c.SLTWays) * int64(c.SLTEntries) * SLTEntryBits
	case SegRegfile:
		return int64(c.RegfileEntries) * RegfileEntryBits
	default:
		panic(fmt.Sprintf("qcc: unknown segment %d", s))
	}
}

// SegmentBytes reports a segment's size in bytes.
func (c Config) SegmentBytes(s Segment) int64 { return c.SegmentBits(s) / 8 }

// TotalBytes reports the full controller cache size.
func (c Config) TotalBytes() int64 {
	var total int64
	for s := Segment(0); s < numSegments; s++ {
		total += c.SegmentBytes(s)
	}
	return total
}

// Address map. The figure-4 layout for 64 qubits is:
//
//	.program  0x00000 + qubit*0x400, 1024 entries per qubit
//	.regfile  0x70000, 1024 entries
//	.measure  0x71000, 5120 entries (0x71000–0x723ff)
//	.pulse    0x80000 + qubit*0x400, 1024 entries per qubit
//
// Bases are derived from the geometry so larger qubit counts never
// collide, and reduce to the figure's constants for 64 qubits.
// Addresses are entry-granular (each QAddress names one entry).

const baseAlign = 0x10000

func roundUp(v, align int64) int64 { return (v + align - 1) / align * align }

// ProgramBase returns the QAddress of qubit q's program chunk.
func (c Config) ProgramBase(q int) int64 { return int64(q) * int64(c.ProgramEntries) }

// RegfileBase returns the QAddress of the register file segment.
func (c Config) RegfileBase() int64 {
	end := int64(c.NQubits) * int64(c.ProgramEntries)
	return roundUp(end, baseAlign) + 0x60000
}

// MeasureBase returns the QAddress of the measurement segment.
func (c Config) MeasureBase() int64 {
	return c.RegfileBase() + roundUp(int64(c.RegfileEntries), 0x1000)
}

// PulseBase returns the QAddress of qubit q's pulse chunk.
func (c Config) PulseBase(q int) int64 {
	base := roundUp(c.MeasureBase()+int64(c.MeasureEntries), baseAlign)
	return base + int64(q)*int64(c.PulseEntries)
}

// Location identifies one cache entry by segment, qubit chunk and index.
type Location struct {
	Segment Segment
	Qubit   int // -1 for shared segments
	Index   int // entry index within the chunk/segment
}
