// Package wire implements SKSP, sketchd's binary streaming ingest
// protocol: length-prefixed, CRC-checked frames over a persistent TCP
// connection, carrying tenant- and stream-grouped update batches with a
// per-frame (clientID, seq) identity for idempotent replay.
//
// A connection starts with an 8-byte header in each direction — the
// 4-byte ASCII magic "SKSP" plus a u32 version — then carries frames:
//
//	offset  size  field
//	0       1     frame type (1 DATA, 2 ACK, 3 REJECT, 4 ERROR)
//	1       4     payload length n (u32, ≤ MaxFramePayload)
//	5       4     CRC-32 (IEEE) of the payload
//	9       n     payload
//
// Everything is little-endian, following the SKCP/SKCM envelope
// discipline (docs/FORMATS.md): declared lengths and counts are
// validated against the remaining payload BEFORE any allocation, and
// the CRC must match before a single payload byte is interpreted.
//
// DATA payload (client → server):
//
//	u64 seq · u8 clientID len + bytes · u8 tenant len + bytes (0 ⇒
//	default tenant) · uvarint group count · per group: u8 stream name
//	len + bytes · uvarint update count · per update uvarint value +
//	varint (zigzag) weight.
//
// ACK payload (server → client): u64 seq · u64 applied · u8 flags
// (bit 0: duplicate — the frame was already applied and was NOT
// re-applied). REJECT payload: u64 seq · u32 retry-after seconds (the
// 429 of the protocol: nothing was applied, resend the same frame
// after the hint). ERROR payload: u64 seq · u16 message len + bytes
// (permanent; resending the same frame cannot succeed).
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"skimsketch/internal/stream"
)

// Magic is the 4-byte connection-header magic.
const Magic = "SKSP"

// Version is the protocol version spoken by this package.
const Version = 1

// MaxFramePayload bounds a frame's declared payload length; Next
// rejects larger declarations before reading (or allocating) anything.
const MaxFramePayload = 1 << 22

// MaxNameLen bounds clientID, tenant and stream names on the wire
// (they are u8-length-prefixed).
const MaxNameLen = 255

// FrameType discriminates the frame envelope.
type FrameType uint8

const (
	FrameData   FrameType = 1
	FrameAck    FrameType = 2
	FrameReject FrameType = 3
	FrameError  FrameType = 4
)

const headerLen = 8   // magic + version
const envelopeLen = 9 // type + length + crc

// Data is a decoded DATA frame. Successive DecodeData calls into the
// same Data reuse its backing buffers (the Updates slices of Groups all
// alias one internal array), so a steady-state decode loop allocates
// nothing; the contents are valid until the next DecodeData call unless
// ownership is handed off (see Handler's release contract).
type Data struct {
	ClientID string
	Seq      uint64
	Tenant   string
	Groups   []stream.Group

	buf   []stream.Update   // shared backing array for all groups
	names map[string]string // interning cache for the string fields
}

// Ack acknowledges a DATA frame: Applied elements were admitted.
// Duplicate marks a replay that was answered from the dedupe window
// without re-applying.
type Ack struct {
	Seq       uint64
	Applied   int64
	Duplicate bool
}

// Reject is the protocol's 429: the frame was not applied (not even
// partially) and should be resent, same seq, after RetryAfter seconds.
type Reject struct {
	Seq        uint64
	RetryAfter uint32
}

// ErrorFrame reports a permanent per-frame failure (unknown stream,
// out-of-domain value, malformed frame): replaying the same frame can
// never succeed.
type ErrorFrame struct {
	Seq uint64
	Msg string
}

// Writer frames SKSP messages onto w. It buffers internally; callers
// must Flush after writing (typically once per frame on the client,
// once per read burst on the server). Not safe for concurrent use.
type Writer struct {
	w       *bufio.Writer
	scratch []byte
}

// NewWriter returns a Writer framing onto w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// WriteHeader writes the 8-byte connection header. Each side sends it
// once, before any frame.
func (w *Writer) WriteHeader() error {
	var hdr [headerLen]byte
	copy(hdr[:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	_, err := w.w.Write(hdr[:])
	return err
}

// Flush pushes buffered frames to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// writeFrame emits one envelope around the payload staged in w.scratch.
func (w *Writer) writeFrame(t FrameType) error {
	if len(w.scratch) > MaxFramePayload {
		return fmt.Errorf("wire: frame payload %d exceeds cap %d", len(w.scratch), MaxFramePayload)
	}
	var env [envelopeLen]byte
	env[0] = byte(t)
	binary.LittleEndian.PutUint32(env[1:], uint32(len(w.scratch)))
	binary.LittleEndian.PutUint32(env[5:], crc32.ChecksumIEEE(w.scratch))
	if _, err := w.w.Write(env[:]); err != nil {
		return err
	}
	_, err := w.w.Write(w.scratch)
	return err
}

func appendName(b []byte, kind, name string) ([]byte, error) {
	if len(name) > MaxNameLen {
		return b, fmt.Errorf("wire: %s %q longer than %d bytes", kind, name, MaxNameLen)
	}
	b = append(b, byte(len(name)))
	return append(b, name...), nil
}

// WriteData frames d. ClientID must be non-empty; an empty Tenant means
// the default tenant.
func (w *Writer) WriteData(d *Data) error {
	if d.ClientID == "" {
		return fmt.Errorf("wire: data frame needs a clientID")
	}
	b := w.scratch[:0]
	b = binary.LittleEndian.AppendUint64(b, d.Seq)
	var err error
	if b, err = appendName(b, "clientID", d.ClientID); err != nil {
		return err
	}
	if b, err = appendName(b, "tenant", d.Tenant); err != nil {
		return err
	}
	b = binary.AppendUvarint(b, uint64(len(d.Groups)))
	for i := range d.Groups {
		g := &d.Groups[i]
		if g.Name == "" {
			return fmt.Errorf("wire: group %d has an empty stream name", i)
		}
		if b, err = appendName(b, "stream", g.Name); err != nil {
			return err
		}
		b = binary.AppendUvarint(b, uint64(len(g.Updates)))
		for _, u := range g.Updates {
			b = binary.AppendUvarint(b, u.Value)
			b = binary.AppendVarint(b, u.Weight)
		}
	}
	w.scratch = b
	return w.writeFrame(FrameData)
}

// WriteAck frames a.
func (w *Writer) WriteAck(a Ack) error {
	b := w.scratch[:0]
	b = binary.LittleEndian.AppendUint64(b, a.Seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(a.Applied))
	var flags byte
	if a.Duplicate {
		flags |= 1
	}
	w.scratch = append(b, flags)
	return w.writeFrame(FrameAck)
}

// WriteReject frames r.
func (w *Writer) WriteReject(r Reject) error {
	b := w.scratch[:0]
	b = binary.LittleEndian.AppendUint64(b, r.Seq)
	w.scratch = binary.LittleEndian.AppendUint32(b, r.RetryAfter)
	return w.writeFrame(FrameReject)
}

// WriteError frames e, truncating the message to MaxNameLen bytes.
func (w *Writer) WriteError(e ErrorFrame) error {
	msg := e.Msg
	if len(msg) > MaxNameLen {
		msg = msg[:MaxNameLen]
	}
	b := w.scratch[:0]
	b = binary.LittleEndian.AppendUint64(b, e.Seq)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(msg)))
	w.scratch = append(b, msg...)
	return w.writeFrame(FrameError)
}

// Reader de-frames SKSP messages from r. The payload returned by Next
// is valid only until the following Next call. Not safe for concurrent
// use.
type Reader struct {
	r       *bufio.Reader
	payload []byte
}

// NewReader returns a Reader de-framing from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// ReadHeader consumes and validates the 8-byte connection header.
func (r *Reader) ReadHeader() error {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return err
	}
	if string(hdr[:4]) != Magic {
		return fmt.Errorf("wire: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != Version {
		return fmt.Errorf("wire: unsupported version %d (want %d)", v, Version)
	}
	return nil
}

// Next reads one frame and returns its type and CRC-verified payload.
// io.EOF is returned bare at a clean frame boundary; every other
// failure (truncation, oversized declaration, bad CRC, unknown type)
// is a wrapped error.
func (r *Reader) Next() (FrameType, []byte, error) {
	var env [envelopeLen]byte
	if _, err := io.ReadFull(r.r, env[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: truncated frame envelope: %w", err)
	}
	t := FrameType(env[0])
	if t < FrameData || t > FrameError {
		return 0, nil, fmt.Errorf("wire: unknown frame type %d", env[0])
	}
	n := binary.LittleEndian.Uint32(env[1:])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("wire: declared payload %d exceeds cap %d", n, MaxFramePayload)
	}
	if cap(r.payload) < int(n) {
		r.payload = make([]byte, n)
	}
	r.payload = r.payload[:n]
	if _, err := io.ReadFull(r.r, r.payload); err != nil {
		return 0, nil, fmt.Errorf("wire: truncated payload (%d declared): %w", n, err)
	}
	if got, want := crc32.ChecksumIEEE(r.payload), binary.LittleEndian.Uint32(env[5:]); got != want {
		return 0, nil, fmt.Errorf("wire: payload CRC %08x, declared %08x", got, want)
	}
	return t, r.payload, nil
}

// cursor is a bounds-checked little-endian payload reader.
type cursor struct {
	b []byte
}

func (c *cursor) u64() (uint64, error) {
	if len(c.b) < 8 {
		return 0, fmt.Errorf("wire: truncated u64")
	}
	v := binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v, nil
}

func (c *cursor) u32() (uint32, error) {
	if len(c.b) < 4 {
		return 0, fmt.Errorf("wire: truncated u32")
	}
	v := binary.LittleEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v, nil
}

func (c *cursor) u16() (uint16, error) {
	if len(c.b) < 2 {
		return 0, fmt.Errorf("wire: truncated u16")
	}
	v := binary.LittleEndian.Uint16(c.b)
	c.b = c.b[2:]
	return v, nil
}

func (c *cursor) u8() (byte, error) {
	if len(c.b) < 1 {
		return 0, fmt.Errorf("wire: truncated u8")
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v, nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad uvarint")
	}
	c.b = c.b[n:]
	return v, nil
}

func (c *cursor) varint() (int64, error) {
	v, n := binary.Varint(c.b)
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad varint")
	}
	c.b = c.b[n:]
	return v, nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	if len(c.b) < n {
		return nil, fmt.Errorf("wire: %d bytes declared, %d remain", n, len(c.b))
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v, nil
}

// intern returns b as a string, reusing a previously-built string for
// the same bytes so a steady-state decode loop does not allocate one
// string per frame for the (few, recurring) client/tenant/stream names.
func (d *Data) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	if d.names == nil || len(d.names) >= 4096 {
		d.names = make(map[string]string)
	}
	s := string(b)
	d.names[s] = s
	return s
}

// DecodeData decodes a DATA payload into d, reusing d's buffers.
// The minimum wire sizes of the variable-count sections (2 bytes per
// update, 3 per group) bound the declared counts against the remaining
// payload before anything is allocated or appended.
func DecodeData(payload []byte, d *Data) error {
	c := cursor{payload}
	var err error
	if d.Seq, err = c.u64(); err != nil {
		return err
	}
	n, err := c.u8()
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("wire: empty clientID")
	}
	id, err := c.bytes(int(n))
	if err != nil {
		return err
	}
	d.ClientID = d.intern(id)
	if n, err = c.u8(); err != nil {
		return err
	}
	tb, err := c.bytes(int(n))
	if err != nil {
		return err
	}
	d.Tenant = d.intern(tb)
	groups, err := c.uvarint()
	if err != nil {
		return err
	}
	if groups > uint64(len(c.b))/3+1 {
		return fmt.Errorf("wire: %d groups declared in %d remaining bytes", groups, len(c.b))
	}
	d.Groups = d.Groups[:0]
	d.buf = d.buf[:0]
	// Updates are appended to the shared buffer, which may move as it
	// grows — record [start,end) offsets and slice at the end.
	type span struct {
		name       string
		start, end int
	}
	var stackSpans [8]span
	spans := stackSpans[:0]
	for gi := uint64(0); gi < groups; gi++ {
		if n, err = c.u8(); err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("wire: group %d has an empty stream name", gi)
		}
		nameB, err := c.bytes(int(n))
		if err != nil {
			return err
		}
		count, err := c.uvarint()
		if err != nil {
			return err
		}
		if count > uint64(len(c.b))/2+1 {
			return fmt.Errorf("wire: %d updates declared in %d remaining bytes", count, len(c.b))
		}
		start := len(d.buf)
		for ui := uint64(0); ui < count; ui++ {
			v, err := c.uvarint()
			if err != nil {
				return err
			}
			w, err := c.varint()
			if err != nil {
				return err
			}
			d.buf = append(d.buf, stream.Update{Value: v, Weight: w})
		}
		spans = append(spans, span{d.intern(nameB), start, len(d.buf)})
	}
	if len(c.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after data payload", len(c.b))
	}
	for _, s := range spans {
		d.Groups = append(d.Groups, stream.Group{Name: s.name, Updates: d.buf[s.start:s.end]})
	}
	return nil
}

// DecodeAck decodes an ACK payload.
func DecodeAck(payload []byte) (Ack, error) {
	c := cursor{payload}
	var a Ack
	var err error
	if a.Seq, err = c.u64(); err != nil {
		return a, err
	}
	applied, err := c.u64()
	if err != nil {
		return a, err
	}
	a.Applied = int64(applied)
	flags, err := c.u8()
	if err != nil {
		return a, err
	}
	a.Duplicate = flags&1 != 0
	if len(c.b) != 0 {
		return a, fmt.Errorf("wire: %d trailing bytes after ack payload", len(c.b))
	}
	return a, nil
}

// DecodeReject decodes a REJECT payload.
func DecodeReject(payload []byte) (Reject, error) {
	c := cursor{payload}
	var r Reject
	var err error
	if r.Seq, err = c.u64(); err != nil {
		return r, err
	}
	if r.RetryAfter, err = c.u32(); err != nil {
		return r, err
	}
	if len(c.b) != 0 {
		return r, fmt.Errorf("wire: %d trailing bytes after reject payload", len(c.b))
	}
	return r, nil
}

// DecodeError decodes an ERROR payload.
func DecodeError(payload []byte) (ErrorFrame, error) {
	c := cursor{payload}
	var e ErrorFrame
	var err error
	if e.Seq, err = c.u64(); err != nil {
		return e, err
	}
	n, err := c.u16()
	if err != nil {
		return e, err
	}
	msg, err := c.bytes(int(n))
	if err != nil {
		return e, err
	}
	e.Msg = string(msg)
	if len(c.b) != 0 {
		return e, fmt.Errorf("wire: %d trailing bytes after error payload", len(c.b))
	}
	return e, nil
}
