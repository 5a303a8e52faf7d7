package graph

// descendWords runs the machine of descendBlock over vals[:len(vals)-lfLen]
// 64 values a chunk, storing the value lfLen on from each as descendBlock
// does, and returns how many values it read and the second draw then due.
// For the i-th chunk it stores out[3i] and out[3i+1], the half and side bits
// of the values it keeps, low bit first, and out[3i+2], how many. It stops
// before a chunk that holds a value Float64 draws again, a chunk that does
// not fill and a chunk out has no room for. th holds sync, the side
// thresholds of the upper and the lower half (not less one, as
// descendBlock's are) and one, each at most one: x ≥ t is then a signed
// compare for every x below one. AVX2, BMI2 and POPCNT.
//
//go:noescape
func descendWords(vals, out []uint64, second uint64, th *[4]uint64) (n int, next uint64)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)
func xgetbv() (eax uint32)

// hasDescendWords reports whether the CPU has what descendWords uses and the
// OS saves the AVX registers. AMD before Zen 3 runs PEXT in microcode, at
// several cycles a bit, slower than descendBlock.
func hasDescendWords() bool {
	top, _, vendor, _ := cpuid(0, 0)
	if top < 7 {
		return false
	}
	sig, _, c, _ := cpuid(1, 0)
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if c&(popcnt|osxsave|avx) != popcnt|osxsave|avx || xgetbv()&6 != 6 {
		return false
	}
	if family := sig >> 8 & 0xf; family == 0xf && vendor == 0x444d4163 { // "cAMD"
		if family += sig >> 20 & 0xff; family < 0x19 {
			return false
		}
	}
	_, b, _, _ := cpuid(7, 0)
	const avx2, bmi2 = 1 << 5, 1 << 8
	return b&(avx2|bmi2) == avx2|bmi2
}
