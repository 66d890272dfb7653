// Package lfsr implements the maximal-length linear feedback shift
// registers the scanner uses to permute its target address sequence
// (Going Wild §2.2, following Durumeric et al.'s scanning guidelines):
// iterating an order-n maximal LFSR visits every value in [1, 2^n-1]
// exactly once in a pseudo-random order, so consecutive probes land in
// unrelated networks and no network receives a burst of requests.
//
// The package also provides the scanner-facing target generator, which
// maps LFSR states onto a (possibly scaled-down) IPv4 address space and
// skips reserved ranges and the operator's opt-out blacklist.
package lfsr

import (
	"errors"
	"fmt"
)

// ErrBadOrder reports an unsupported register width.
var ErrBadOrder = errors.New("lfsr: order must be between 3 and 32")

// taps holds maximal-length feedback tap masks per order (XAPP 052 / Ward &
// Molteno tables). Bit i of the mask corresponds to tap position i+1.
var taps = map[uint]uint32{
	3:  tapMask(3, 2),
	4:  tapMask(4, 3),
	5:  tapMask(5, 3),
	6:  tapMask(6, 5),
	7:  tapMask(7, 6),
	8:  tapMask(8, 6, 5, 4),
	9:  tapMask(9, 5),
	10: tapMask(10, 7),
	11: tapMask(11, 9),
	12: tapMask(12, 6, 4, 1),
	13: tapMask(13, 4, 3, 1),
	14: tapMask(14, 5, 3, 1),
	15: tapMask(15, 14),
	16: tapMask(16, 15, 13, 4),
	17: tapMask(17, 14),
	18: tapMask(18, 11),
	19: tapMask(19, 6, 2, 1),
	20: tapMask(20, 17),
	21: tapMask(21, 19),
	22: tapMask(22, 21),
	23: tapMask(23, 18),
	24: tapMask(24, 23, 22, 17),
	25: tapMask(25, 22),
	26: tapMask(26, 6, 2, 1),
	27: tapMask(27, 5, 2, 1),
	28: tapMask(28, 25),
	29: tapMask(29, 27),
	30: tapMask(30, 6, 4, 1),
	31: tapMask(31, 28),
	32: tapMask(32, 22, 2, 1),
}

func tapMask(positions ...uint) uint32 {
	var m uint32
	for _, p := range positions {
		m |= 1 << (p - 1)
	}
	return m
}

// LFSR is a Galois-form maximal-length linear feedback shift register of a
// given order. The zero state is unreachable; the register cycles through
// all 2^order-1 nonzero states.
type LFSR struct {
	state uint32
	seed  uint32
	mask  uint32 // value mask: low `order` bits
	fb    uint32 // feedback toggle mask (tap positions, order bit included)
}

// New returns an LFSR of the given order seeded with seed. The seed is
// reduced into the register's nonzero state space; any seed is accepted.
func New(order uint, seed uint32) (*LFSR, error) {
	fb, ok := taps[order]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadOrder, order)
	}
	mask := uint32(1)<<order - 1
	if order == 32 {
		mask = ^uint32(0)
	}
	s := seed & mask
	if s == 0 {
		s = 1 // zero is the one forbidden state
	}
	return &LFSR{state: s, seed: s, mask: mask, fb: fb}, nil
}

// Next returns the current state and advances the register one step
// (Galois form: shift right, then toggle the tap bits when a one falls
// off the end).
func (l *LFSR) Next() uint32 {
	out := l.state
	lsb := l.state & 1
	l.state >>= 1
	if lsb == 1 {
		l.state ^= l.fb
	}
	return out
}

// Period returns the cycle length 2^order-1.
func (l *LFSR) Period() uint64 {
	if l.mask == ^uint32(0) {
		return 1<<32 - 1
	}
	return uint64(l.mask)
}

// Reset rewinds the register to its seed state.
func (l *LFSR) Reset() { l.state = l.seed }
