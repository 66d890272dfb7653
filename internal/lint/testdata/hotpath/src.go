// Corpus for the -escape-log cross-check: ../escape.log is its go1.24
// -gcflags=-m log, and ../escape.golden what CheckEscapeLog reports.
package corpus

import "fmt"

// shared sink so the corpus has somewhere concrete to write.
var sink []uint32

// OKArithmetic is allocation-free: arithmetic, array writes, field reads.
//
//lint:hotpath pure arithmetic
func OKArithmetic(u uint32) [4]byte {
	var b [4]byte
	b[0] = byte(u >> 24)
	b[1] = byte(u >> 16)
	b[2] = byte(u >> 8)
	b[3] = byte(u)
	return b
}

// OKCallerStorage writes into the caller's slice — no growth, no alloc.
//
//lint:hotpath fills caller-provided storage
func OKCallerStorage(dst []uint32, u uint32) int {
	n := 0
	for n < len(dst) {
		dst[n] = u
		n++
	}
	return n
}

// BadAppend grows a slice on the hot path.
//
//lint:hotpath demo
func BadAppend(dst []uint32, u uint32) []uint32 {
	return append(dst, u) // allocates on growth; -m is silent
}

// BadMake allocates per call.
//
//lint:hotpath demo
func BadMake(n int) []uint32 {
	return make([]uint32, n) // want hotpath
}

// BadStringConcat builds a string.
//
//lint:hotpath demo
func BadStringConcat(a, b string) string {
	return a + b // want hotpath
}

// BadStringConv copies between representations.
//
//lint:hotpath demo
func BadStringConv(b []byte) string {
	return string(b) // want hotpath
}

// BadClosure captures n: the environment allocates.
//
//lint:hotpath demo
func BadClosure(n int) func() int {
	return func() int { return n } // want hotpath
}

// OKNonCapturingClosure references nothing from the frame.
//
//lint:hotpath demo
func OKNonCapturingClosure() func() int {
	return func() int { return 1 } // -m over-reports this static closure
}

// BadMapLiteral allocates the map.
//
//lint:hotpath demo
func BadMapLiteral(k string) map[string]int {
	return map[string]int{k: 1} // want hotpath
}

// BadSliceLiteral allocates the backing array.
//
//lint:hotpath demo
func BadSliceLiteral(u uint32) []uint32 {
	return []uint32{u} // want hotpath
}

// BadBoxing passes a concrete int to fmt's any parameter.
//
//lint:hotpath demo
func BadBoxing(u uint32) {
	fmt.Println(u) // want hotpath
}

// OKUnreachable has its alloc after the return — on no path.
//
//lint:hotpath demo
func OKUnreachable(dst []uint32, u uint32) []uint32 {
	return dst
	dst = append(dst, u) //nolint dead code on purpose
	return dst
}

// BadBranch allocates only on the rare branch — still a finding.
//
//lint:hotpath demo
func BadBranch(dst []uint32, u uint32, grow bool) []uint32 {
	if grow {
		dst = append(dst, u) // allocates on growth; -m is silent
	}
	return dst
}

// UnannotatedAppend is not annotated, so append is fine here.
func UnannotatedAppend(dst []uint32, u uint32) []uint32 {
	return append(dst, u)
}

// AllowedAppend documents a deliberate cold-start exception.
//
//lint:hotpath demo
func AllowedAppend(dst []uint32, u uint32) []uint32 {
	// the first call grows once, then the capacity sticks
	return append(dst, u)
}

//lint:hotpath misplaced — annotates a var, not a function: want hotpath
var notAFunction = 3
