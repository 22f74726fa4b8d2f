// Package transport implements the paper's image-transport framework:
// a length-prefixed tagged-message wire protocol, the display daemon
// that relays images from render nodes to display clients and control
// messages ("remote callbacks") back, and the renderer/display
// interface endpoints.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"time"
)

// Role identifies an endpoint at handshake.
type Role byte

// Endpoint roles.
const (
	RoleRenderer Role = 1
	RoleDisplay  Role = 2
)

func (r Role) String() string {
	switch r {
	case RoleRenderer:
		return "renderer"
	case RoleDisplay:
		return "display"
	}
	return fmt.Sprintf("role(%d)", byte(r))
}

// MsgType tags a wire message.
type MsgType byte

// Wire message types.
const (
	// MsgHello opens a connection: payload is [role, kind?] (see
	// HelloPayload). The daemon's welcome reply is a MsgHello too.
	MsgHello MsgType = 1
	// MsgImage carries one (piece of a) rendered frame.
	MsgImage MsgType = 2
	// MsgControl carries a tagged user-control message toward the
	// renderers.
	MsgControl MsgType = 3
	// MsgBye announces a clean shutdown of the peer.
	MsgBye MsgType = 4
	// MsgAck is a display's receive report for one frame: the feedback
	// signal the adaptive streaming layer uses to estimate RTT.
	MsgAck MsgType = 5
	// MsgAdvertise is a renderer's announcement of the codec families
	// it can produce (comma-separated names); the stream broker
	// restricts its quality ladder to advertised codecs.
	MsgAdvertise MsgType = 6
	// MsgPing is a liveness probe: payload is the sender's 8-byte
	// send timestamp (nanoseconds, opaque to the receiver). Endpoints
	// and daemons answer with MsgPong echoing the payload.
	MsgPing MsgType = 7
	// MsgPong answers a ping, echoing the ping payload so the sender
	// can compute the round-trip time on its own clock.
	MsgPong MsgType = 8
	// MsgBusy rejects a handshake: the daemon is over its admission
	// budget and the client should retry after the hinted delay
	// instead of being accepted and starving the admitted sessions.
	// Payload: 4-byte retry-after in milliseconds plus a reason
	// string. Sent in place of the welcome hello.
	MsgBusy MsgType = 9
)

// Client kinds, carried in an optional second hello byte so admission
// control can prioritize relays (which serve whole subtrees) over
// individual viewers. Absent byte = KindViewer.
const (
	// KindViewer is an individual display client.
	KindViewer byte = 0
	// KindRelay is a relay daemon's upstream connection.
	KindRelay byte = 1
)

// Header flag bits. flagCRC is always set by the writer; the reader
// checks the CRC whatever the flags say.
const (
	flagCRC   byte = 1 << 0
	flagTrace byte = 1 << 1
)

// traceCtxSize is the wire size of a TraceCtx block.
const traceCtxSize = 21

// TraceCtx is the compact per-frame trace context carried in the
// optional trace block: enough identity to correlate provenance events
// recorded by every process the frame crosses, cheap enough to ride
// every image message.
type TraceCtx struct {
	// TraceID identifies the originating stream (one render session);
	// random per origin process.
	TraceID uint64
	// FrameID is the frame sequence number within the trace.
	FrameID uint32
	// Hop counts forwarding steps from the origin (renderer = 0); each
	// re-forwarder increments it.
	Hop uint8
	// OriginUnixNano is the origin's wall clock when the frame left the
	// renderer, used for end-to-end frame-age budgets.
	OriginUnixNano int64
}

// appendTo serializes the trace context.
func (t *TraceCtx) appendTo(out []byte) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], t.TraceID)
	out = append(out, b[:]...)
	binary.BigEndian.PutUint32(b[:4], t.FrameID)
	out = append(out, b[:4]...)
	out = append(out, t.Hop)
	binary.BigEndian.PutUint64(b[:], uint64(t.OriginUnixNano))
	return append(out, b[:]...)
}

// parseTraceCtx deserializes a trace-context block of traceCtxSize
// bytes.
func parseTraceCtx(p []byte) *TraceCtx {
	return &TraceCtx{
		TraceID:        binary.BigEndian.Uint64(p),
		FrameID:        binary.BigEndian.Uint32(p[8:]),
		Hop:            p[12],
		OriginUnixNano: int64(binary.BigEndian.Uint64(p[13:])),
	}
}

// maxMessage bounds a wire message to keep a corrupt length prefix
// from exhausting memory (64 MiB fits a raw 2048^2 frame with room).
const maxMessage = 64 << 20

// ErrTooLarge reports a length prefix beyond the wire limit — either
// a legitimately oversized frame on the write side or, on the read
// side, a corrupted length field. Callers distinguish it from other
// read errors with errors.Is.
var ErrTooLarge = errors.New("transport: message exceeds size limit")

// ErrChecksum reports a frame whose CRC32 trailer does not match its
// contents. The stream position is past the frame when it is
// returned, so callers may drop the message and keep reading.
var ErrChecksum = errors.New("transport: message checksum mismatch")

// Message is one framed unit.
type Message struct {
	Type    MsgType
	Payload []byte
	// Trace is the optional provenance context, carried in the
	// frame's trace block when set.
	Trace *TraceCtx
}

// WriteMessage frames and writes one message as
// [len u32][type][flags] [trace block if flagTrace] payload crc32.
// The length counts the payload only; the CRC32 (IEEE) covers type,
// flags, trace block and payload.
func WriteMessage(w io.Writer, m Message) error {
	if len(m.Payload) > maxMessage {
		return fmt.Errorf("transport: message of %d bytes: %w", len(m.Payload), ErrTooLarge)
	}
	var hdr [6]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(m.Payload)))
	hdr[4] = byte(m.Type)
	hdr[5] = flagCRC
	var trace []byte
	if m.Trace != nil {
		hdr[5] |= flagTrace
		var buf [traceCtxSize]byte
		trace = m.Trace.appendTo(buf[:0])
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:6])
	crc.Write(trace)
	crc.Write(m.Payload)
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc.Sum32())
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(trace) > 0 {
		if _, err := w.Write(trace); err != nil {
			return err
		}
	}
	if _, err := w.Write(m.Payload); err != nil {
		return err
	}
	_, err := w.Write(trailer[:])
	return err
}

// ReadMessage reads one framed message and verifies its CRC32
// trailer. A mismatch returns ErrChecksum with the stream advanced
// past the frame, so callers can drop the corrupt frame and continue;
// ErrTooLarge reports a length prefix over the limit, which usually
// means a corrupted header and is unrecoverable without a reconnect.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxMessage {
		return Message{}, fmt.Errorf("transport: message length %d: %w", n, ErrTooLarge)
	}
	extra := uint32(0)
	if hdr[5]&flagTrace != 0 {
		extra = traceCtxSize
	}
	body := make([]byte, extra+n+4)
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, err
	}
	trace, payload, trailer := body[:extra], body[extra:extra+n], body[extra+n:]
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:6])
	crc.Write(trace)
	crc.Write(payload)
	if got, want := crc.Sum32(), binary.BigEndian.Uint32(trailer); got != want {
		return Message{}, fmt.Errorf("transport: crc %08x != %08x: %w", got, want, ErrChecksum)
	}
	m := Message{Type: MsgType(hdr[4]), Payload: payload}
	if len(trace) > 0 {
		m.Trace = parseTraceCtx(trace)
	}
	return m, nil
}

// HelloPayload builds a hello (or welcome) payload: the role, then the
// client kind (KindViewer, KindRelay). KindViewer omits the byte.
func HelloPayload(role Role, kind byte) []byte {
	if kind == KindViewer {
		return []byte{byte(role)}
	}
	return []byte{byte(role), kind}
}

// ParseHello extracts the role and client kind from a hello payload;
// hellos without the kind byte are KindViewer.
func ParseHello(p []byte) (Role, byte, error) {
	if len(p) < 1 {
		return 0, 0, fmt.Errorf("transport: empty hello: %w", ErrTruncated)
	}
	kind := KindViewer
	if len(p) >= 2 {
		kind = p[1]
	}
	return Role(p[0]), kind, nil
}

// MarshalBusy builds a MsgBusy payload from a retry-after hint and a
// short reason.
func MarshalBusy(retryAfter time.Duration, reason string) []byte {
	ms := retryAfter.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	out := make([]byte, 4, 4+len(reason))
	binary.BigEndian.PutUint32(out, uint32(ms))
	return append(out, reason...)
}

// UnmarshalBusy parses a MsgBusy payload.
func UnmarshalBusy(p []byte) (retryAfter time.Duration, reason string, err error) {
	if len(p) < 4 {
		return 0, "", ErrTruncated
	}
	return time.Duration(binary.BigEndian.Uint32(p)) * time.Millisecond, string(p[4:]), nil
}

// MarshalPing builds a ping (or pong) payload from a sender-clock
// timestamp in nanoseconds.
func MarshalPing(nanos int64) []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, uint64(nanos))
	return out
}

// UnmarshalPing recovers the sender timestamp from a ping/pong
// payload.
func UnmarshalPing(p []byte) (int64, error) {
	if len(p) < 8 {
		return 0, ErrTruncated
	}
	return int64(binary.BigEndian.Uint64(p)), nil
}

// ImageMsg is the payload of MsgImage: one compressed piece of a
// frame. A full frame is PieceCount pieces covering [0,W)x[0,H);
// single-piece frames have PieceCount 1.
type ImageMsg struct {
	// FrameID is the time step / sequence number.
	FrameID uint32
	// PieceIndex and PieceCount describe parallel-compression pieces.
	PieceIndex uint16
	PieceCount uint16
	// X0, Y0, X1, Y1 is the piece's region in the full frame.
	X0, Y0, X1, Y1 uint16
	// W, H are the full-frame dimensions.
	W, H uint16
	// Codec names the compression used for Data.
	Codec string
	// Data is the codec output for this piece.
	Data []byte
}

// ErrTruncated reports a structurally short payload.
var ErrTruncated = errors.New("transport: truncated payload")

// Marshal serializes the image message.
func (m *ImageMsg) Marshal() ([]byte, error) {
	return m.AppendTo(make([]byte, 0, 21+len(m.Codec)+len(m.Data)))
}

// AppendTo serializes the image message into out's spare capacity,
// growing it as needed, and returns the extended slice. Senders on a
// per-frame hot path keep one scratch buffer and pass it back with
// out[:0] each frame, making the marshal allocation-free at steady
// state.
func (m *ImageMsg) AppendTo(out []byte) ([]byte, error) {
	if len(m.Codec) > 255 {
		return nil, fmt.Errorf("transport: codec name too long")
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], m.FrameID)
	out = append(out, b[:]...)
	for _, v := range []uint16{m.PieceIndex, m.PieceCount, m.X0, m.Y0, m.X1, m.Y1, m.W, m.H} {
		binary.BigEndian.PutUint16(b[:2], v)
		out = append(out, b[:2]...)
	}
	out = append(out, byte(len(m.Codec)))
	out = append(out, m.Codec...)
	return append(out, m.Data...), nil
}

// UnmarshalImage parses an ImageMsg payload.
func UnmarshalImage(p []byte) (*ImageMsg, error) {
	if len(p) < 21 {
		return nil, ErrTruncated
	}
	m := &ImageMsg{FrameID: binary.BigEndian.Uint32(p)}
	vals := []*uint16{&m.PieceIndex, &m.PieceCount, &m.X0, &m.Y0, &m.X1, &m.Y1, &m.W, &m.H}
	off := 4
	for _, v := range vals {
		*v = binary.BigEndian.Uint16(p[off:])
		off += 2
	}
	nameLen := int(p[off])
	off++
	if len(p) < off+nameLen {
		return nil, ErrTruncated
	}
	m.Codec = string(p[off : off+nameLen])
	m.Data = p[off+nameLen:]
	if m.PieceCount == 0 {
		return nil, fmt.Errorf("transport: piece count 0")
	}
	if m.PieceIndex >= m.PieceCount {
		return nil, fmt.Errorf("transport: piece %d of %d", m.PieceIndex, m.PieceCount)
	}
	if m.X1 <= m.X0 || m.Y1 <= m.Y0 || m.X1 > m.W || m.Y1 > m.H {
		return nil, fmt.Errorf("transport: bad region [%d,%d)x[%d,%d) in %dx%d", m.X0, m.X1, m.Y0, m.Y1, m.W, m.H)
	}
	return m, nil
}

// AckMsg is the payload of MsgAck: the display's receive timestamp for
// one completed frame. The broker subtracts its own send timestamp to
// observe the effective round-trip of the feedback loop.
type AckMsg struct {
	// FrameID identifies the acknowledged frame.
	FrameID uint32
	// RecvUnixNano is the display's clock when the frame completed.
	RecvUnixNano int64
	// Bytes is the compressed payload size the display counted.
	Bytes uint32
}

// Marshal serializes the ack.
func (m *AckMsg) Marshal() []byte {
	out := make([]byte, 16)
	binary.BigEndian.PutUint32(out, m.FrameID)
	binary.BigEndian.PutUint64(out[4:], uint64(m.RecvUnixNano))
	binary.BigEndian.PutUint32(out[12:], m.Bytes)
	return out
}

// UnmarshalAck parses an AckMsg payload.
func UnmarshalAck(p []byte) (*AckMsg, error) {
	if len(p) < 16 {
		return nil, ErrTruncated
	}
	return &AckMsg{
		FrameID:      binary.BigEndian.Uint32(p),
		RecvUnixNano: int64(binary.BigEndian.Uint64(p[4:])),
		Bytes:        binary.BigEndian.Uint32(p[12:]),
	}, nil
}

// MarshalAdvertise serializes a codec-family advertisement.
func MarshalAdvertise(names []string) []byte {
	return []byte(strings.Join(names, ","))
}

// UnmarshalAdvertise parses an advertisement payload.
func UnmarshalAdvertise(p []byte) []string {
	if len(p) == 0 {
		return nil
	}
	return strings.Split(string(p), ",")
}

// ControlMsg is the payload of MsgControl: a tagged message passed
// through the daemon to every renderer interface as a remote callback.
type ControlMsg struct {
	// Tag names the callback ("view", "colormap", "codec", "start",
	// "stop", ...).
	Tag string
	// Data is the tag-specific payload.
	Data []byte
}

// Marshal serializes the control message.
func (m *ControlMsg) Marshal() ([]byte, error) {
	if len(m.Tag) > 255 {
		return nil, fmt.Errorf("transport: control tag too long")
	}
	out := make([]byte, 0, 1+len(m.Tag)+len(m.Data))
	out = append(out, byte(len(m.Tag)))
	out = append(out, m.Tag...)
	return append(out, m.Data...), nil
}

// UnmarshalControl parses a ControlMsg payload.
func UnmarshalControl(p []byte) (*ControlMsg, error) {
	if len(p) < 1 {
		return nil, ErrTruncated
	}
	n := int(p[0])
	if len(p) < 1+n {
		return nil, ErrTruncated
	}
	return &ControlMsg{Tag: string(p[1 : 1+n]), Data: p[1+n:]}, nil
}
