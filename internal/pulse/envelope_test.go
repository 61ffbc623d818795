package pulse

import (
	"math"
	"math/rand"
	"testing"

	"qtenon/internal/circuit"
)

// referenceDrive is the per-sample synthesis formula as it was before the
// envelope and the angle scale were split, kept frozen: it returns the
// unquantized I and Q drive of every sample.
func referenceDrive(kind circuit.Kind, theta float64, durationNs float64, p Params) (iv, qv []float64) {
	n := int(durationNs * p.SampleRateHz / 1e9)
	if n <= 0 {
		n = 1
	}
	iv, qv = make([]float64, n), make([]float64, n)
	scale := p.Amplitude * normalizedAngle(theta) / math.Pi
	center := float64(n-1) / 2
	sigmaSamples := p.Sigma * p.SampleRateHz
	if sigmaSamples <= 0 {
		sigmaSamples = float64(n) / 4
	}
	phase := drivePhase(kind)
	for i := range iv {
		t := (float64(i) - center) / sigmaSamples
		env := math.Exp(-t * t / 2)
		denv := -t / sigmaSamples * env * p.DRAGLambda
		iv[i] = scale * (env*math.Cos(phase) - denv*math.Sin(phase))
		qv[i] = scale * (env*math.Sin(phase) + denv*math.Cos(phase))
	}
	return iv, qv
}

// TestSynthesisMatchesReferenceBitForBit checks Synthesize, the PGU's
// cached-envelope append path and Generate against the frozen formula:
// the same float bits before quantization, and == on every sample and
// packed entry. It covers every drive axis, angles up to 4π in magnitude
// including multiples of π/4, pulse lengths of 20, 40 and 600 ns, a
// sub-sample length and zero, and Params changes on a live PGU. These
// name more envelopes than a PGU caches, so the cache restarts along the
// way and must stay within its bound.
func TestSynthesisMatchesReferenceBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	kinds := []circuit.Kind{circuit.RX, circuit.RY, circuit.RZ, circuit.CZ, circuit.H, circuit.X, circuit.Y}
	durations := []float64{20, 40, 600, 0.3, 0}
	params := []Params{DefaultParams(), DefaultParams(), DefaultParams()}
	params[1].DRAGLambda, params[1].Amplitude = 0, 0.55
	params[2].Sigma = 0 // falls back to a quarter of the pulse
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	pgu := NewPGU()
	var dst []Entry
	for c := 0; c < cases; c++ {
		kind := kinds[rng.Intn(len(kinds))]
		dur := durations[rng.Intn(len(durations))]
		theta := (rng.Float64()*2 - 1) * 4 * math.Pi
		if rng.Intn(4) == 0 {
			theta = float64(rng.Intn(33)-16) * math.Pi / 4
		}
		p := params[0]
		if rng.Intn(8) == 0 {
			p = params[1+rng.Intn(2)]
		}
		pgu.Params = p

		iv, qv := referenceDrive(kind, theta, dur, p)
		env := newEnvelope(sampleCount(dur, p), drivePhase(kind), p)
		scale := angleScale(theta, p)
		want := make(Waveform, len(iv))
		for i := range iv {
			if got := scale * env[i].i; math.Float64bits(got) != math.Float64bits(iv[i]) {
				t.Fatalf("case %d %v θ=%v %v ns sample %d: I drive %v, reference %v", c, kind, theta, dur, i, got, iv[i])
			}
			if got := scale * env[i].q; math.Float64bits(got) != math.Float64bits(qv[i]) {
				t.Fatalf("case %d %v θ=%v %v ns sample %d: Q drive %v, reference %v", c, kind, theta, dur, i, got, qv[i])
			}
			want[i] = IQ{I: quantize(iv[i]), Q: quantize(qv[i])}
		}
		wf := Synthesize(kind, theta, dur, p)
		if len(wf) != len(want) {
			t.Fatalf("case %d: %d samples, reference %d", c, len(wf), len(want))
		}
		for i := range want {
			if wf[i] != want[i] {
				t.Fatalf("case %d %v θ=%v %v ns sample %d: %v, reference %v", c, kind, theta, dur, i, wf[i], want[i])
			}
		}

		wantEntries := PackEntries(want)
		prefix := rng.Intn(3)
		dst = dst[:0]
		for i := 0; i < prefix; i++ {
			dst = append(dst, Entry{uint64(c), uint64(i)})
		}
		dst = pgu.AppendGenerate(dst, kind, theta, dur)
		if len(dst) != prefix+len(wantEntries) {
			t.Fatalf("case %d: appended %d entries, reference %d", c, len(dst)-prefix, len(wantEntries))
		}
		for i := 0; i < prefix; i++ {
			if dst[i] != (Entry{uint64(c), uint64(i)}) {
				t.Fatalf("case %d: AppendGenerate overwrote dst[%d]", c, i)
			}
		}
		gen := pgu.Generate(kind, theta, dur)
		if len(pgu.envs) > maxEnvelopes {
			t.Fatalf("case %d: envelope cache holds %d entries, bound %d", c, len(pgu.envs), maxEnvelopes)
		}
		for i, e := range wantEntries {
			if dst[prefix+i] != e {
				t.Fatalf("case %d %v θ=%v %v ns: appended entry %d differs from the reference", c, kind, theta, dur, i)
			}
			if gen[i] != e {
				t.Fatalf("case %d %v θ=%v %v ns: generated entry %d differs from the reference", c, kind, theta, dur, i)
			}
		}
	}
}
