package qcc

import "testing"

// TestTable2Sizes verifies the 64-qubit segment sizes against Table 2 of
// the paper, bit for bit.
func TestTable2Sizes(t *testing.T) {
	c := DefaultConfig(64)
	tests := []struct {
		seg   Segment
		bytes int64
	}{
		{SegProgram, 520 * 1024}, // 64 set × 1024 entry × 65 bit = 520 KB
		{SegPulse, 5 * 1024 * 1024},
		{SegMeasure, 40 * 1024},
		{SegSLT, 112 * 1024},
		{SegRegfile, 4 * 1024},
	}
	for _, tt := range tests {
		if got := c.SegmentBytes(tt.seg); got != tt.bytes {
			t.Errorf("%v = %d bytes, want %d", tt.seg, got, tt.bytes)
		}
	}
	// Total: 5.66 MB as the paper rounds it.
	total := c.TotalBytes()
	if mb := float64(total) / (1024 * 1024); mb < 5.65 || mb > 5.67 {
		t.Errorf("total = %d bytes (%.3f MB), want ≈5.66 MB", total, mb)
	}
}

// TestScalability256 verifies the §7.5 claim: controlling 256 qubits
// requires ≈22.63 MB of controller cache.
func TestScalability256(t *testing.T) {
	c := DefaultConfig(256)
	mb := float64(c.TotalBytes()) / (1024 * 1024)
	if mb < 22.4 || mb > 22.9 {
		t.Errorf("256-qubit cache = %.2f MB, want ≈22.6 MB", mb)
	}
}

func TestEntryBitWidths(t *testing.T) {
	if ProgramEntryBits != 65 {
		t.Errorf("ProgramEntryBits = %d, want 65", ProgramEntryBits)
	}
	if SLTEntryBits != 56 {
		t.Errorf("SLTEntryBits = %d, want 56", SLTEntryBits)
	}
	if PulseEntryBits != 640 {
		t.Errorf("PulseEntryBits = %d, want 640", PulseEntryBits)
	}
}

func TestSegmentPrivacy(t *testing.T) {
	public := map[Segment]bool{
		SegProgram: true, SegMeasure: true, SegRegfile: true,
		SegPulse: false, SegSLT: false,
	}
	for s, want := range public {
		if s.Public() != want {
			t.Errorf("%v.Public() = %v, want %v", s, s.Public(), want)
		}
	}
}

func TestFigure4AddressMap(t *testing.T) {
	c := DefaultConfig(64)
	// The figure's constants for the 64-qubit design.
	if got := c.ProgramBase(0); got != 0x0 {
		t.Errorf("ProgramBase(0) = %#x", got)
	}
	if got := c.ProgramBase(1); got != 0x400 {
		t.Errorf("ProgramBase(1) = %#x, want 0x400", got)
	}
	if got := c.ProgramBase(63); got != 0xfc00 {
		t.Errorf("ProgramBase(63) = %#x, want 0xfc00", got)
	}
	if got := c.RegfileBase(); got != 0x70000 {
		t.Errorf("RegfileBase = %#x, want 0x70000", got)
	}
	if got := c.MeasureBase(); got != 0x71000 {
		t.Errorf("MeasureBase = %#x, want 0x71000", got)
	}
	if got := c.MeasureBase() + int64(c.MeasureEntries); got != 0x72400 {
		t.Errorf("measure end = %#x, want 0x72400", got)
	}
	if got := c.PulseBase(0); got != 0x80000 {
		t.Errorf("PulseBase(0) = %#x, want 0x80000", got)
	}
	if got := c.PulseBase(1); got != 0x80400 {
		t.Errorf("PulseBase(1) = %#x, want 0x80400", got)
	}
	if got := c.PulseBase(63); got != 0x8fc00 {
		t.Errorf("PulseBase(63) = %#x, want 0x8fc00", got)
	}
}

// No segment overlaps even at large qubit counts.
func TestAddressMapSegmentsDisjoint(t *testing.T) {
	for _, n := range []int{8, 64, 256, 320} {
		c := DefaultConfig(n)
		progEnd := c.ProgramBase(n-1) + int64(c.ProgramEntries)
		if progEnd > c.RegfileBase() {
			t.Errorf("n=%d: program overlaps regfile", n)
		}
		if c.MeasureBase()+int64(c.MeasureEntries) > c.PulseBase(0) {
			t.Errorf("n=%d: measure overlaps pulse", n)
		}
	}
}

func TestCacheAccessControl(t *testing.T) {
	cache, err := NewCache(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	// Public segments accept host access.
	if err := cache.WriteProgram(0, 0, ProgramEntry{Type: 7}, HostAccess); err != nil {
		t.Errorf("host program write: %v", err)
	}
	if e, err := cache.ReadProgram(0, 0, HostAccess); err != nil || e.Type != 7 {
		t.Errorf("host program read = %+v, %v", e, err)
	}
	if err := cache.WriteReg(5, 0xdead, HostAccess); err != nil {
		t.Errorf("host reg write: %v", err)
	}
	if err := cache.WriteMeasure(3, 42, HardwareAccess); err != nil {
		t.Errorf("hw measure write: %v", err)
	}
	if v, err := cache.ReadMeasure(3, HostAccess); err != nil || v != 42 {
		t.Errorf("host measure read = %d, %v", v, err)
	}
	// Private segment rejects host access but allows hardware.
	if _, err := cache.ReadPulse(0, 0, HostAccess); err == nil {
		t.Error("host read of .pulse allowed")
	}
	if err := cache.WritePulse(0, 0, [10]uint64{1}, HostAccess); err == nil {
		t.Error("host write of .pulse allowed")
	}
	if err := cache.WritePulse(0, 0, [10]uint64{1}, HardwareAccess); err != nil {
		t.Errorf("hw pulse write: %v", err)
	}
	if p, err := cache.ReadPulse(0, 0, HardwareAccess); err != nil || p[0] != 1 {
		t.Errorf("hw pulse read = %v, %v", p, err)
	}
	if cache.Stats.Denied != 2 {
		t.Errorf("Denied = %d, want 2", cache.Stats.Denied)
	}
}

func TestCacheBounds(t *testing.T) {
	cache, _ := NewCache(DefaultConfig(2))
	if _, err := cache.ReadProgram(2, 0, HardwareAccess); err == nil {
		t.Error("qubit out of range accepted")
	}
	if _, err := cache.ReadProgram(0, 1024, HardwareAccess); err == nil {
		t.Error("entry out of range accepted")
	}
	if err := cache.WriteMeasure(5120, 0, HardwareAccess); err == nil {
		t.Error("measure index out of range accepted")
	}
	if _, err := cache.ReadReg(1024, HostAccess); err == nil {
		t.Error("reg index out of range accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig(0)
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted zero qubits")
	}
	bad = DefaultConfig(4)
	bad.SLTWays = 0
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted zero SLT ways")
	}
	if _, err := NewCache(bad); err == nil {
		t.Error("NewCache accepted invalid config")
	}
}
