package bench

import (
	"strings"
	"testing"

	"qtenon/internal/route"
)

// All generators must run cleanly at Quick scale and emit their paper
// reference lines, and the whole suite must render the same bytes every
// time: neither the experiment order nor any table may follow map
// iteration order.
func TestAllGeneratorsQuick(t *testing.T) {
	var first strings.Builder
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			out, err := Run(name, QuickScale)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "==") {
				t.Errorf("missing header in output:\n%s", out)
			}
			if len(out) < 100 {
				t.Errorf("suspiciously short report:\n%s", out)
			}
			first.WriteString(out)
		})
	}
	if t.Failed() {
		return
	}
	for pass := 2; pass <= 3; pass++ {
		var again strings.Builder
		for _, name := range Names() {
			out, err := Run(name, QuickScale)
			if err != nil {
				t.Fatal(err)
			}
			again.WriteString(out)
		}
		if again.String() != first.String() {
			t.Fatalf("pass %d rendered the quick suite differently from pass 1", pass)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", QuickScale); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestScaleParameters(t *testing.T) {
	if Full.Iterations() != 10 || Full.Shots() != 500 {
		t.Error("full scale must match the paper: 10 iterations, 500 shots")
	}
	if got := Full.SweepQubits(); len(got) != 8 || got[0] != 8 || got[7] != 64 {
		t.Errorf("full sweep = %v, want 8..64 step 8", got)
	}
	if got := Full.ScaleQubits(); len(got) != 5 || got[4] != 320 {
		t.Errorf("scalability sweep = %v, want 64..320", got)
	}
	if QuickScale.Iterations() >= Full.Iterations() {
		t.Error("quick scale not smaller")
	}
	if Full.HeadlineQubits() != 64 {
		t.Error("headline register must be 64 qubits at full scale")
	}
}

// TestSweepPointMethod pins the engine each Figure 11/12 sweep point
// runs with: a Full-scale 24q point runs the product surrogate instead
// of an exact sharded statevector, points on either side keep automatic
// routing (and their run-cache keys), and a -method override wins.
func TestSweepPointMethod(t *testing.T) {
	for _, c := range []struct {
		sc   Scale
		nq   int
		want route.Method
	}{
		{Full, 16, route.Auto},
		{Full, 24, route.Product},
		{Full, 32, route.Auto},
		{Scale{Method: route.Sharded}, 24, route.Sharded},
		{Scale{Method: route.Dense}, 8, route.Dense},
	} {
		if got := sweepScale(c.sc, c.nq).Method; got != c.want {
			t.Errorf("sweep point %dq under -method %s runs %s, want %s", c.nq, c.sc.Method, got, c.want)
		}
	}
}

// Table 2 is scale-independent and must state the exact paper sizes.
func TestTable2Content(t *testing.T) {
	out, err := Table2(QuickScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"520 KB", "5.00 MB", "40 KB", "112 KB", "4 KB", "5.66 MB", "22.6"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q:\n%s", want, out)
		}
	}
}

// Table 1's measured instruction-count ordering must hold at any scale.
func TestTable1Ordering(t *testing.T) {
	out, err := Table1(QuickScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TileLink & RoCC", "interleaved", "Instruction count"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}
