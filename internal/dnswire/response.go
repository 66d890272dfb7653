package dnswire

import (
	"encoding/binary"
	"errors"
)

// This file is the encode-side mirror of view.go: the simulated resolvers
// answer tens of millions of list-scan probes, and building a Message
// (header struct, section slices, a boxed RData per record) only to pack
// and drop it was most of what an answered exchange cost. A
// ResponseBuilder reads the query through a View and appends the response
// straight into an arena it owns and reuses — header, echoed question,
// records — writing, byte for byte, what PackInto would have written for
// the equivalent Message, compression pointers included.

// ResponseBuilder appends response messages to one reusable arena.
// Several messages can sit in it side by side (a query can draw two
// racing responses): each is addressed by the span Finish returns, and
// its compression pointers count from its own first byte. The zero value
// is ready to use. A ResponseBuilder must not be used concurrently, and
// Message slices are valid until the next Reset.
type ResponseBuilder struct {
	buf []byte
	cmp Compressor
	// start is where the message under construction begins; count is
	// where the record count of the section being filled sits.
	start, count int
	// rootOwner marks a root question name, which records repeat as a
	// zero octet where every other name is a pointer to the question.
	rootOwner bool
	err       error
}

// Reset empties the arena for the next exchange.
func (b *ResponseBuilder) Reset() { b.buf = b.buf[:0] }

// Message returns the bytes of a finished message by its Finish span.
func (b *ResponseBuilder) Message(off, end int) []byte { return b.buf[off:end:end] }

// Begin starts a response to q the way NewResponse does: the query's ID,
// opcode and RD bit, QR and RA set, rcode, and the question echoed in the
// query's letter casing. cn must be q's question name in canonical form
// (CanonicalName: lower case, the one optional trailing dot gone), which
// the resolver holds anyway; it is what gets encoded — so the
// Compressor's entries alias a string, never the View's reused storage —
// and the query's casing is copied back over it. Records are added to
// the answer section until Authority is called.
func (b *ResponseBuilder) Begin(q *View, cn string, rcode RCode) {
	b.start, b.err = len(b.buf), nil
	b.count = b.start + 6
	b.cmp.reset(b.start)
	flags := flagQR | q.flags&(0xF<<11|flagRD) | flagRA | uint16(rcode&0xF)
	b.buf = binary.BigEndian.AppendUint16(b.buf, q.id)
	b.buf = binary.BigEndian.AppendUint16(b.buf, flags)
	b.buf = append(b.buf, 0, 1, 0, 0, 0, 0, 0, 0)
	name := len(b.buf) + 1 // text index i of the name sits at name+i
	b.buf, b.err = appendLabels(b.buf, cn, &b.cmp)
	b.rootOwner = cn == ""
	if raw := q.name; b.err == nil && len(raw) >= len(cn) {
		for i := 0; i < len(cn); i++ {
			if c := raw[i]; c != cn[i] && lowerASCII(c) == cn[i] {
				b.buf[name+i] = c
			}
		}
	}
	b.buf = binary.BigEndian.AppendUint16(b.buf, uint16(q.qtype))
	b.buf = binary.BigEndian.AppendUint16(b.buf, uint16(q.qclass))
}

// SetAA marks the response authoritative.
func (b *ResponseBuilder) SetAA() { b.buf[b.start+2] |= flagAA >> 8 }

// Authority directs the records that follow into the authority section.
// Sections sit on the wire in order, so no answer may follow.
func (b *ResponseBuilder) Authority() { b.count = b.start + 8 }

// extend grows the message by n bytes and returns them for the caller to
// fill by index.
func (b *ResponseBuilder) extend(n int) []byte {
	l := len(b.buf)
	if cap(b.buf)-l < n {
		b.grow(n)
	}
	b.buf = b.buf[:l+n]
	return b.buf[l:]
}

// grow reallocates the arena with room for n more bytes, which happens
// only until it has reached its working size. It stays out of line so
// that extend inlines into the per-record appenders without carrying an
// allocation site into them.
//
//go:noinline
func (b *ResponseBuilder) grow(n int) {
	b.buf = append(b.buf, make([]byte, n)...)[:len(b.buf)]
}

// head writes the fixed front of one record — owner, type, class, TTL and
// an RDLENGTH of rdlen, which callers with a variable body patch once the
// body is written — and counts the record into the current section. It
// returns rdlen further bytes for the body. Every record the resolvers
// send is owned by the question name, so the owner is never passed: it is
// the pointer PackInto would have found (or the root's zero octet).
//
//lint:hotpath per-record encode of the simulated resolver's answers
func (b *ResponseBuilder) head(typ Type, class Class, ttl uint32, rdlen int) []byte {
	n := 2
	if b.rootOwner {
		n = 1
	}
	p := b.extend(n + 10 + rdlen)
	p[0] = 0
	if !b.rootOwner {
		p[0], p[1] = 0xC0, 12
	}
	p = p[n:]
	binary.BigEndian.PutUint16(p[0:], uint16(typ))
	binary.BigEndian.PutUint16(p[2:], uint16(class))
	binary.BigEndian.PutUint32(p[4:], ttl)
	binary.BigEndian.PutUint16(p[8:], uint16(rdlen))
	c := b.buf[b.count:]
	binary.BigEndian.PutUint16(c, binary.BigEndian.Uint16(c)+1)
	return p[10:]
}

// A adds an IN A record for addr (big-endian uint32, the pipeline's
// address form).
//
//lint:hotpath per-record encode of the simulated resolver's answers
func (b *ResponseBuilder) A(ttl uint32, addr uint32) {
	binary.BigEndian.PutUint32(b.head(TypeA, ClassIN, ttl, 4), addr)
}

// NS adds an IN NS record naming host.
//
//lint:hotpath per-record encode of the simulated resolver's answers
func (b *ResponseBuilder) NS(ttl uint32, host string) {
	b.head(TypeNS, ClassIN, ttl, 0)
	b.body(appendName(b.buf, host, &b.cmp))
}

// RR adds a record of any type, for the types no scan elicits in bulk.
func (b *ResponseBuilder) RR(class Class, ttl uint32, data RData) {
	b.head(data.Type(), class, ttl, 0)
	b.body(data.appendTo(b.buf, &b.cmp))
}

// Canned is a run of answer records encoded once, to be appended to many
// responses with a fresh TTL (AppendCanned). Its compression pointers
// count from the first byte of the message it was cut from, so it is
// valid behind exactly the header and question it followed there: a
// question of the same canonical name, in any letter casing.
type Canned struct {
	// at is the length of the header and question the run followed.
	at   int
	wire []byte
	// ttls are the offsets in wire of each record's TTL.
	ttls []int
}

var (
	errCannedShape    = errors.New("dnswire: canned records follow a question of another length")
	errCannedSections = errors.New("dnswire: canned response must hold one question and answers only")
)

// CanAnswers cuts the answer records out of a finished response whose
// other sections are empty, for AppendCanned to replay.
func CanAnswers(msg []byte) (Canned, error) {
	if len(msg) < 12 {
		return Canned{}, ErrShortMessage
	}
	if binary.BigEndian.Uint16(msg[4:]) != 1 || binary.BigEndian.Uint32(msg[8:]) != 0 {
		return Canned{}, errCannedSections
	}
	at, err := skipName(msg, 12)
	if err != nil {
		return Canned{}, err
	}
	at += 4
	c := Canned{at: at, wire: append([]byte(nil), msg[at:]...)}
	off := 0
	for off < len(c.wire) {
		if off, err = skipName(c.wire, off); err != nil {
			return Canned{}, err
		}
		if off+10 > len(c.wire) {
			return Canned{}, ErrShortMessage
		}
		c.ttls = append(c.ttls, off+4)
		off += 10 + int(binary.BigEndian.Uint16(c.wire[off+8:]))
	}
	if off != len(c.wire) {
		return Canned{}, ErrBadRData
	}
	if len(c.ttls) != int(binary.BigEndian.Uint16(msg[6:])) {
		return Canned{}, ErrTooManyRecords
	}
	return c, nil
}

// AppendCanned appends c's records to the section being filled with
// every TTL set to ttl: the bytes the record appenders would have
// written for the same records. It must come straight after Begin, for
// a question of the name c was cut behind — a question of another length
// is refused as Finish reports — and records added behind it do not
// compress against its names.
//
//lint:hotpath per-probe append of a pre-encoded snoop answer
func (b *ResponseBuilder) AppendCanned(c *Canned, ttl uint32) {
	if len(b.buf)-b.start != c.at {
		if b.err == nil {
			b.err = errCannedShape
		}
		return
	}
	p := b.extend(len(c.wire))
	copy(p, c.wire)
	for _, off := range c.ttls {
		binary.BigEndian.PutUint32(p[off:], ttl)
	}
	n := b.buf[b.count:]
	binary.BigEndian.PutUint16(n, binary.BigEndian.Uint16(n)+uint16(len(c.ttls)))
}

var errRDataTooLong = errors.New("dnswire: rdata exceeds 65535 bytes")

// body closes a record whose RDATA an appendTo call wrote behind a
// zero-length head: it adopts the extended buffer and patches RDLENGTH.
//
//lint:hotpath per-record encode of the simulated resolver's answers
func (b *ResponseBuilder) body(buf []byte, err error) {
	rdlen := len(buf) - len(b.buf)
	if err == nil && rdlen > 0xFFFF {
		err = errRDataTooLong
	}
	if err != nil && b.err == nil {
		b.err = err
	}
	binary.BigEndian.PutUint16(buf[len(b.buf)-2:], uint16(rdlen))
	b.buf = buf
}

// Finish closes the message and returns its span in the arena. A message
// PackInto would have refused — a question or RDATA name that does not
// encode — is taken back out of the arena and reported.
func (b *ResponseBuilder) Finish() (off, end int, err error) {
	if b.err != nil {
		b.buf = b.buf[:b.start]
		return b.start, b.start, b.err
	}
	return b.start, len(b.buf), nil
}

// TruncateResponse cuts a response the builder wrote down to the reply a
// resolver sends when the answer exceeds the UDP payload limit: the
// header with TC set and the record counts zeroed, plus the question —
// the bytes Message{Header(+TC), Questions}.PackInto produces. It works
// in place and returns the shortened slice.
func TruncateResponse(wire []byte) []byte {
	end, err := skipName(wire, 12)
	if err != nil || end+4 > len(wire) {
		return wire
	}
	wire[2] |= flagTC >> 8
	clear(wire[6:12])
	return wire[:end+4]
}
