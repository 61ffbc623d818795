// Package pulse implements control-pulse synthesis for superconducting
// qubits: envelope generation (Gaussian and DRAG), IQ quantization to the
// 16-bit DAC format, packing into the 640-bit .pulse cache entries of
// Table 2, in the word layout the two 2 GHz DACs per qubit consume.
//
// The paper treats its Pulse Generation Units as black boxes with a fixed
// 1000-cycle latency; we keep that timing contract but also make the PGU
// functional, so that the Skip Lookup Table's claim — identical (gate
// type, quantized angle) always yields an identical pulse — is a testable
// property rather than an assumption.
package pulse

import (
	"math"

	"qtenon/internal/circuit"
)

// DAC and entry geometry from §5.2 of the paper.
const (
	DACBits        = 16            // per-sample resolution
	DACRateHz      = 2_000_000_000 // 2 GHz sample clock
	DACsPerQubit   = 2             // I and Q channels
	EntryBits      = 640           // one .pulse cache entry
	WordsPerEntry  = EntryBits / 64
	SamplesPerWord = 64 / (DACBits * DACsPerQubit) // 2 IQ pairs per 64-bit word
	// SamplesPerEntry is the number of IQ sample pairs a 640-bit entry
	// carries: 640 / 32 = 20 pairs, i.e. 10 ns of drive at 2 GS/s.
	SamplesPerEntry = EntryBits / (DACBits * DACsPerQubit)
)

// IQ is one complex drive sample quantized to the DAC range.
type IQ struct {
	I int16
	Q int16
}

// Waveform is a sequence of IQ samples at the DAC rate.
type Waveform []IQ

// Params controls envelope synthesis.
type Params struct {
	SampleRateHz float64 // DAC rate
	Sigma        float64 // Gaussian width in seconds
	DRAGLambda   float64 // DRAG correction weight
	Amplitude    float64 // peak drive, 0..1 of full scale
}

// DefaultParams returns typical transmon drive settings: 20 ns gates with
// σ = duration/4 and a standard DRAG coefficient.
func DefaultParams() Params {
	return Params{
		SampleRateHz: DACRateHz,
		Sigma:        5e-9,
		DRAGLambda:   0.5,
		Amplitude:    0.8,
	}
}

// Synthesize renders the drive waveform for a gate of the given kind and
// rotation angle lasting `durationNs` nanoseconds. The envelope is a
// Gaussian scaled by angle/π (a linear-response calibration), with a DRAG
// derivative component on the quadrature channel for X/Y-type rotations.
// Z-type rotations are virtual (frame updates) but still emit a frame
// marker entry so downstream accounting sees one pulse per gate, matching
// the paper's pulse-count model.
func Synthesize(kind circuit.Kind, theta float64, durationNs float64, p Params) Waveform {
	env := newEnvelope(sampleCount(durationNs, p), drivePhase(kind), p)
	scale := angleScale(theta, p)
	wf := make(Waveform, len(env))
	for i, s := range env {
		wf[i] = s.scaled(scale)
	}
	return wf
}

// envSample is one sample of the angle-free drive: the Gaussian envelope
// and its DRAG derivative rotated onto the drive axis. Every
// transcendental call of synthesis happens here; the rotation angle only
// scales the result.
type envSample struct{ i, q float64 }

// scaled applies the angle scale and quantizes. Synthesis computes
// scale·(rotated envelope), so scaling a stored envelope sample yields
// the same bits as computing the product in one expression.
func (s envSample) scaled(scale float64) IQ {
	return IQ{I: quantize(scale * s.i), Q: quantize(scale * s.q)}
}

// newEnvelope synthesizes the angle-free envelope of an n-sample pulse
// on the drive axis at the given IQ phase.
func newEnvelope(n int, phase float64, p Params) []envSample {
	env := make([]envSample, n)
	center := float64(n-1) / 2
	sigmaSamples := p.Sigma * p.SampleRateHz
	if sigmaSamples <= 0 {
		sigmaSamples = float64(n) / 4
	}
	cos, sin := math.Cos(phase), math.Sin(phase)
	for i := range env {
		t := (float64(i) - center) / sigmaSamples
		g := math.Exp(-t * t / 2)
		dg := -t / sigmaSamples * g * p.DRAGLambda
		// Rotate (g, dg) by the drive phase to select X vs Y axis.
		env[i] = envSample{i: g*cos - dg*sin, q: g*sin + dg*cos}
	}
	return env
}

// sampleCount is the number of DAC samples in a pulse lasting
// durationNs, at least one.
func sampleCount(durationNs float64, p Params) int {
	n := int(durationNs * p.SampleRateHz / 1e9)
	if n <= 0 {
		n = 1
	}
	return n
}

// angleScale is the drive amplitude for a rotation by theta.
func angleScale(theta float64, p Params) float64 {
	return p.Amplitude * normalizedAngle(theta) / math.Pi
}

// normalizedAngle folds an angle into (-π, π] so that physically
// equivalent rotations produce identical drives.
func normalizedAngle(theta float64) float64 {
	t := math.Mod(theta, 2*math.Pi)
	if t > math.Pi {
		t -= 2 * math.Pi
	}
	if t <= -math.Pi {
		t += 2 * math.Pi
	}
	return t
}

// drivePhase maps a gate kind to its IQ drive axis.
func drivePhase(kind circuit.Kind) float64 {
	switch kind {
	case circuit.RY, circuit.Y:
		return math.Pi / 2
	case circuit.H:
		return math.Pi / 4 // composite X+Z drive approximation
	default:
		return 0
	}
}

func quantize(v float64) int16 {
	const full = math.MaxInt16
	x := math.Round(v * full)
	if x > full {
		x = full
	}
	if x < -full-1 {
		x = -full - 1
	}
	return int16(x)
}

// Entry is a packed 640-bit .pulse cache line: ten 64-bit words, each
// carrying two IQ pairs, the exact layout the ten parallel 64-bit output
// buffers consume (§5.2).
type Entry [WordsPerEntry]uint64

// PackEntries packs a waveform into consecutive 640-bit entries, zero
// padding the tail.
func PackEntries(wf Waveform) []Entry {
	out := make([]Entry, entryCount(len(wf)))
	for i, s := range wf {
		packSample(out, i, s)
	}
	return out
}

// entryCount is the number of entries an n-sample waveform packs into; an
// empty waveform still occupies one.
func entryCount(n int) int {
	return max((n+SamplesPerEntry-1)/SamplesPerEntry, 1)
}

// packSample ORs sample i of a waveform into its slot of the zeroed
// entries out.
func packSample(out []Entry, i int, s IQ) {
	word := (i % SamplesPerEntry) / SamplesPerWord
	slot := i % SamplesPerWord
	packed := uint64(uint16(s.I)) | uint64(uint16(s.Q))<<16
	out[i/SamplesPerEntry][word] |= packed << (32 * slot)
}

// UnpackEntries reverses PackEntries; n is the original sample count.
func UnpackEntries(entries []Entry, n int) Waveform {
	wf := make(Waveform, n)
	for i := range wf {
		e := entries[i/SamplesPerEntry]
		word := (i % SamplesPerEntry) / SamplesPerWord
		slot := i % SamplesPerWord
		packed := e[word] >> (32 * slot)
		wf[i] = IQ{I: int16(uint16(packed)), Q: int16(uint16(packed >> 16))}
	}
	return wf
}

// PGU is a pulse generation unit: a fixed-function synthesizer with the
// paper's enforced 1000-cycle latency. Busy tracking belongs to the
// pipeline model. A PGU caches the angle-free envelopes it has
// synthesized, so it is not safe for concurrent use.
type PGU struct {
	Params       Params
	LatencyCycle int64

	envs []cachedEnvelope
}

// maxEnvelopes bounds a PGU's envelope cache. A gate-timing model has a
// handful of pulse lengths and there are three drive axes; a caller
// cycling through more starts the cache afresh.
const maxEnvelopes = 16

// envKey names an envelope by everything that determines it: sample
// count, drive phase and the envelope-shaping Params, with floats
// compared by bit pattern.
type envKey struct {
	n                        int
	phase, rate, sigma, drag uint64
}

type cachedEnvelope struct {
	key     envKey
	samples []envSample
}

// NewPGU returns a PGU with default synthesis parameters and the paper's
// 1000-cycle latency (§7.1).
func NewPGU() *PGU { return &PGU{Params: DefaultParams(), LatencyCycle: 1000} }

// Generate synthesizes and packs the pulse for one gate instance.
// durationNs follows the gate-timing model (20 ns 1q / 40 ns 2q).
func (p *PGU) Generate(kind circuit.Kind, theta float64, durationNs float64) []Entry {
	return p.AppendGenerate(nil, kind, theta, durationNs)
}

// AppendGenerate appends the packed pulse Generate returns to dst and
// returns the extended slice. The entries are bit-identical to
// PackEntries(Synthesize(kind, theta, durationNs, p.Params)).
func (p *PGU) AppendGenerate(dst []Entry, kind circuit.Kind, theta float64, durationNs float64) []Entry {
	env := p.envelope(sampleCount(durationNs, p.Params), drivePhase(kind))
	scale := angleScale(theta, p.Params)
	base := len(dst)
	dst = append(dst, make([]Entry, entryCount(len(env)))...)
	out := dst[base:]
	for i, s := range env {
		packSample(out, i, s.scaled(scale))
	}
	return dst
}

// envelope returns the cached envelope for n samples at the given drive
// phase under the current Params, synthesizing it on first use.
func (p *PGU) envelope(n int, phase float64) []envSample {
	key := envKey{
		n:     n,
		phase: math.Float64bits(phase),
		rate:  math.Float64bits(p.Params.SampleRateHz),
		sigma: math.Float64bits(p.Params.Sigma),
		drag:  math.Float64bits(p.Params.DRAGLambda),
	}
	for _, c := range p.envs {
		if c.key == key {
			return c.samples
		}
	}
	if len(p.envs) == maxEnvelopes {
		p.envs = p.envs[:0]
	}
	env := newEnvelope(n, phase, p.Params)
	p.envs = append(p.envs, cachedEnvelope{key: key, samples: env})
	return env
}
