package sim

import "testing"

// Time formatting covers negative values (used when printing deltas).
func TestTimeStringNegative(t *testing.T) {
	if got := (-500 * Picosecond).String(); got != "-500ps" {
		t.Errorf("String = %q", got)
	}
	if got := (-3 * Microsecond).String(); got != "-3µs" {
		t.Errorf("String = %q", got)
	}
}
