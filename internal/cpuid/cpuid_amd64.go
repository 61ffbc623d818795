package cpuid

// AVX reports whether the CPU executes AVX and the OS saves the YMM
// registers across context switches; AVX2 whether it also executes
// AVX2. Both are computed once, at package init.
var AVX, AVX2 = detect()

// detect reads CPUID.1:ECX bits 27 (OSXSAVE) and 28 (AVX), then
// XGETBV(0) bits 1 and 2 (the OS saves the XMM and YMM state); XGETBV
// faults without OSXSAVE, so it runs only after that bit. AVX2 is
// CPUID.7.0:EBX bit 5, read only when leaf 7 exists (CPUID.0:EAX ≥ 7).
func detect() (avx, avx2 bool) {
	const osxsave, avxBit, avx2Bit = 1 << 27, 1 << 28, 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avxBit) != osxsave|avxBit || xgetbv0()&6 != 6 {
		return false, false
	}
	if maxLeaf < 7 {
		return true, false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return true, ebx&avx2Bit != 0
}

// cpuid returns the registers of CPUID leaf eaxArg, subleaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0, the state components the OS
// saves.
func xgetbv0() uint32
