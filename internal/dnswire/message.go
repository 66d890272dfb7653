package dnswire

import (
	"encoding/binary"
	"fmt"
)

// Header is the fixed 12-octet DNS message header with its flag bits
// broken out.
type Header struct {
	ID     uint16
	QR     bool // response flag
	Opcode Opcode
	AA     bool // authoritative answer
	TC     bool // truncated
	RD     bool // recursion desired
	RA     bool // recursion available
	RCode  RCode
}

// Question is a single entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// ResourceRecord is a single entry of the answer, authority, or additional
// sections.
type ResourceRecord struct {
	Name  string
	Class Class
	TTL   uint32
	Data  RData
}

// Type returns the record type, derived from the typed body.
func (rr ResourceRecord) Type() Type {
	if rr.Data == nil {
		return TypeNone
	}
	return rr.Data.Type()
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []ResourceRecord
	Authority  []ResourceRecord
	Additional []ResourceRecord
}

// MaxUDPSize is the classic 512-octet UDP payload ceiling for non-EDNS
// responders.
const MaxUDPSize = 512

// NewQuery builds a single-question query message with recursion desired,
// the shape every scan in the paper sends.
func NewQuery(id uint16, name string, typ Type, class Class) *Message {
	return &Message{
		Header:    Header{ID: id, RD: true, Opcode: OpcodeQuery},
		Questions: []Question{{Name: name, Type: typ, Class: class}},
	}
}

// NewResponse builds a response message answering q, echoing its question
// section as resolvers do.
// Test support: the tests of other packages build responses with it.
func NewResponse(q *Message, rcode RCode) *Message {
	resp := &Message{
		Header: Header{
			ID:     q.Header.ID,
			QR:     true,
			Opcode: q.Header.Opcode,
			RD:     q.Header.RD,
			RA:     true,
			RCode:  rcode,
		},
	}
	resp.Questions = append(resp.Questions, q.Questions...)
	return resp
}

// AddEDNS attaches an OPT pseudo-record advertising a UDP payload size
// (RFC 6891: the OPT record's CLASS field carries the size).
// Test support: the tests of other packages build EDNS queries with it.
func (m *Message) AddEDNS(payloadSize uint16) {
	m.Additional = append(m.Additional, ResourceRecord{
		Name:  "",
		Class: Class(payloadSize),
		TTL:   0,
		Data:  OPT{},
	})
}

// AddAnswer appends an answer record.
// Test support: the tests of other packages build responses with it.
func (m *Message) AddAnswer(name string, class Class, ttl uint32, data RData) {
	m.Answers = append(m.Answers, ResourceRecord{Name: name, Class: class, TTL: ttl, Data: data})
}

// flag bit positions within the 16-bit flags word.
const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
)

// PackInto packs m from offset 0 of buf (truncated first) using the
// caller-supplied Compressor (emptied first; nil packs every name in
// full), so a pooled buffer and Compressor serve many packs without
// per-message allocations. The result aliases buf's storage when capacity
// suffices.
func (m *Message) PackInto(buf []byte, cmp *Compressor) ([]byte, error) {
	buf = buf[:0]
	if cmp != nil {
		cmp.reset(0)
	}
	var flags uint16
	if m.Header.QR {
		flags |= flagQR
	}
	flags |= uint16(m.Header.Opcode&0xF) << 11
	if m.Header.AA {
		flags |= flagAA
	}
	if m.Header.TC {
		flags |= flagTC
	}
	if m.Header.RD {
		flags |= flagRD
	}
	if m.Header.RA {
		flags |= flagRA
	}
	flags |= uint16(m.Header.RCode & 0xF)

	buf = binary.BigEndian.AppendUint16(buf, m.Header.ID)
	buf = binary.BigEndian.AppendUint16(buf, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Questions)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Answers)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Authority)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Additional)))

	var err error
	for _, q := range m.Questions {
		if buf, err = appendName(buf, q.Name, cmp); err != nil {
			return buf, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, section := range [][]ResourceRecord{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			if rr.Data == nil {
				return buf, fmt.Errorf("dnswire: record %q has nil data", rr.Name)
			}
			if buf, err = appendName(buf, rr.Name, cmp); err != nil {
				return buf, err
			}
			buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type()))
			buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
			buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
			// Reserve the RDLENGTH slot, then fill it after encoding.
			lenOff := len(buf)
			buf = append(buf, 0, 0)
			if buf, err = rr.Data.appendTo(buf, cmp); err != nil {
				return buf, err
			}
			rdlen := len(buf) - lenOff - 2
			if rdlen > 0xFFFF {
				return buf, fmt.Errorf("dnswire: rdata of %q exceeds 65535 bytes", rr.Name)
			}
			binary.BigEndian.PutUint16(buf[lenOff:], uint16(rdlen))
		}
	}
	return buf, nil
}

// PackBytes packs m into a fresh slice, compressing names across all
// sections.
func (m *Message) PackBytes() ([]byte, error) {
	return m.PackInto(make([]byte, 0, 128), new(Compressor))
}

// AppendQuery appends the wire form of a single-question query — the
// shape every scan probe takes — without building a Message. rd is the
// recursion-desired bit, which only cache snooping clears. buf may be a
// pooled scratch slice; the result aliases it. The bytes equal
// NewQuery(...).PackBytes() with Header.RD set to rd.
func AppendQuery(buf []byte, id uint16, rd bool, name string, typ Type, class Class) ([]byte, error) {
	var flags uint16
	if rd {
		flags = flagRD
	}
	buf = binary.BigEndian.AppendUint16(buf, id)
	buf = binary.BigEndian.AppendUint16(buf, flags)
	buf = binary.BigEndian.AppendUint16(buf, 1)
	buf = append(buf, 0, 0, 0, 0, 0, 0)
	var err error
	if buf, err = appendName(buf, name, nil); err != nil {
		return buf, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(typ))
	buf = binary.BigEndian.AppendUint16(buf, uint16(class))
	return buf, nil
}

// AppendEDNS appends to query, a message AppendQuery built at the start
// of its slice, an OPT pseudo-record advertising a UDP payload size
// (RFC 6891: the OPT record's CLASS field carries the size) and counts it
// in ARCOUNT: the bytes AddEDNS gives the same query packed.
func AppendEDNS(query []byte, payloadSize uint16) []byte {
	binary.BigEndian.PutUint16(query[10:], binary.BigEndian.Uint16(query[10:])+1)
	query = append(query, 0) // the root owner name
	query = binary.BigEndian.AppendUint16(query, uint16(TypeOPT))
	query = binary.BigEndian.AppendUint16(query, payloadSize)
	return append(query, 0, 0, 0, 0, 0, 0) // TTL and an empty RDATA
}

// QueryNameWire returns the question name of a query built by AppendQuery
// as it sits on the wire — labels behind their length octets, root label
// last — aliasing query. Length octets are at most 63 and so never ASCII
// letters, which lets Encode0x20Bytes re-case the name where it lies.
func QueryNameWire(query []byte) []byte {
	return query[12 : len(query)-4]
}

// EncodeNameWire returns the uncompressed wire encoding of name, for
// precomputing the constant suffix of streamed scan queries.
func EncodeNameWire(name string) ([]byte, error) {
	return appendName(nil, name, nil)
}

// AppendTargetQuery appends the wire form of one sweep probe — a
// recursion-desired query for prefix.hex-ip.base — writing labels straight
// into buf with no name assembly or Message. prefix is one raw label (its
// bytes, no length octet, ≤63 bytes of it used); baseWire is the scan
// base's precomputed encoding from EncodeNameWire, whose terminating root
// label closes the name. The alive probes pay it per target and the
// sweep once per round, for the template it patches; it does not
// allocate when buf has capacity.
func AppendTargetQuery(buf []byte, id uint16, prefix []byte, target uint32, baseWire []byte, typ Type, class Class) []byte {
	buf = binary.BigEndian.AppendUint16(buf, id)
	buf = binary.BigEndian.AppendUint16(buf, flagRD)
	buf = binary.BigEndian.AppendUint16(buf, 1)
	buf = append(buf, 0, 0, 0, 0, 0, 0)
	if len(prefix) > maxLabelWire {
		prefix = prefix[:maxLabelWire]
	}
	buf = append(buf, byte(len(prefix)))
	buf = append(buf, prefix...)
	const hexdigits = "0123456789abcdef"
	buf = append(buf, 8,
		hexdigits[target>>28], hexdigits[target>>24&0xF],
		hexdigits[target>>20&0xF], hexdigits[target>>16&0xF],
		hexdigits[target>>12&0xF], hexdigits[target>>8&0xF],
		hexdigits[target>>4&0xF], hexdigits[target&0xF])
	buf = append(buf, baseWire...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(typ))
	buf = binary.BigEndian.AppendUint16(buf, uint16(class))
	return buf
}

// CensusQuery is one sweep round's probe template. Append patches the
// three per-target fields (transaction ID, anti-caching prefix, hex-IP
// label) into a preassembled query instead of rebuilding it label by
// label; the bytes are what AppendTargetQuery produces for the same
// target and attempt (TestTemplateBuildMatchesAppend pins this). Every
// instance has the template's length, QTYPE and name length, so a
// transport can decide what depends only on those once per template,
// without building a probe.
type CensusQuery struct {
	wire    []byte // the query for target 0
	salt    uint64
	nameLen int
}

// NewCensusQuery returns the template of retry round attempt (0 is the
// census pass) over the scan base's encoding baseWire, from
// EncodeNameWire.
func NewCensusQuery(baseWire []byte, attempt int) *CensusQuery {
	p0 := censusPrefix(0, attempt)
	wire := AppendTargetQuery(nil, 0, p0[:], 0, baseWire, TypeA, ClassIN)
	// The dotted form drops the first length octet and the root label.
	return &CensusQuery{wire: wire, salt: uint64(attempt) * 0x9E3779B9, nameLen: len(QueryNameWire(wire)) - 2}
}

// censusPrefix derives the per-target random label that defeats caching
// (§2.2), salted with the retry attempt: attempt 0 is the original census
// probe, while each retransmission round carries a fresh label — a
// genuinely new packet that redraws its per-packet loss fate (the target
// decode ignores the prefix, so attribution is unaffected). It is the
// defining computation; Append writes the same digits in place.
func censusPrefix(u uint32, attempt int) [5]byte {
	v := uint16((uint64(u)*2654435761 + uint64(attempt)*0x9E3779B9) >> 8)
	const hexdigits = "0123456789abcdef"
	return [5]byte{'r', hexdigits[v>>12], hexdigits[v>>8&0xF], hexdigits[v>>4&0xF], hexdigits[v&0xF]}
}

// QType returns the question type every instance asks.
func (q *CensusQuery) QType() Type {
	return Type(binary.BigEndian.Uint16(q.wire[len(q.wire)-4:]))
}

// NameLen returns the length of every instance's question name in dotted
// form, as View.QName reads it.
func (q *CensusQuery) NameLen() int { return q.nameLen }

// Append appends the probe for target u to buf and returns it grown; it
// does not allocate when buf has capacity.
//
//lint:hotpath per-probe census query build
func (q *CensusQuery) Append(buf []byte, u uint32) []byte {
	off := len(buf)
	buf = append(buf, q.wire...)
	// Fixed layout: id at [0:2]; the 5-byte prefix label content at
	// [13:18] (after the 12-byte header and its length octet); the
	// 8-hex-digit target label content at [19:27].
	w := buf[off:]
	id := uint16(u) ^ uint16(u>>16)
	w[0], w[1] = byte(id>>8), byte(id)
	// The anti-caching prefix (w[13] stays 'r' from the template).
	const hexdigits = "0123456789abcdef"
	v := uint16((uint64(u)*2654435761 + q.salt) >> 8)
	w[14] = hexdigits[v>>12]
	w[15] = hexdigits[v>>8&0xF]
	w[16] = hexdigits[v>>4&0xF]
	w[17] = hexdigits[v&0xF]
	w[19] = hexdigits[u>>28]
	w[20] = hexdigits[u>>24&0xF]
	w[21] = hexdigits[u>>20&0xF]
	w[22] = hexdigits[u>>16&0xF]
	w[23] = hexdigits[u>>12&0xF]
	w[24] = hexdigits[u>>8&0xF]
	w[25] = hexdigits[u>>4&0xF]
	w[26] = hexdigits[u&0xF]
	return buf
}

// Unpack decodes a wire-format message into a Message tree: a View's
// Validate decides whether it is accepted (and with which error it is
// not), and the tree is built from the View's record walk. Only tests and
// the benchmark's decode replay build trees; production code reads every
// datagram through a View.
func Unpack(msg []byte) (*Message, error) {
	m := new(Message) // inlined: a caller that drops the tree keeps it on the stack
	if err := unpackInto(msg, m); err != nil {
		return nil, err
	}
	return m, nil
}

func unpackInto(msg []byte, m *Message) error {
	v := GetView() // pooled: its name buffer is grown already
	defer PutView(v)
	//lint:allow errdrop Validate re-applies every check of Reset and returns the first fault in wire order
	_ = v.Reset(msg)
	if err := v.Validate(); err != nil {
		return err
	}
	m.Header = Header{
		ID:     v.id,
		QR:     v.flags&flagQR != 0,
		Opcode: Opcode(v.flags >> 11 & 0xF),
		AA:     v.flags&flagAA != 0,
		TC:     v.flags&flagTC != 0,
		RD:     v.flags&flagRD != 0,
		RA:     v.flags&flagRA != 0,
		RCode:  RCode(v.flags & 0xF),
	}
	off := 12
	for i := 0; i < v.counts[0]; i++ {
		var q Question
		q.Name, off = nameAt(msg, off)
		q.Type = Type(binary.BigEndian.Uint16(msg[off:]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	for i, rrs := range [...]*[]ResourceRecord{&m.Answers, &m.Authority, &m.Additional} {
		err := v.Records(SectionAnswer+i, func(rr Record) {
			name, _ := nameAt(msg, rr.owner)
			*rrs = append(*rrs, ResourceRecord{Name: name, Class: rr.Class, TTL: rr.TTL, Data: rdataOf(msg, rr)})
		})
		if err != nil {
			return err
		}
	}
	return nil
}
