package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"
)

func TestErrTooLargeSentinel(t *testing.T) {
	// Read side: a length prefix over the limit is the distinct
	// ErrTooLarge, not a generic error.
	hdr := bytes.NewBuffer([]byte{0xff, 0xff, 0xff, 0xff, 1, flagCRC})
	if _, err := ReadMessage(hdr); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("read err = %v, want ErrTooLarge", err)
	}
	// Write side: an oversized payload is refused with the same
	// sentinel before anything hits the wire.
	huge := Message{Type: MsgImage, Payload: make([]byte, maxMessage+1)}
	var sink bytes.Buffer
	if err := WriteMessage(&sink, huge); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("write err = %v, want ErrTooLarge", err)
	}
	if sink.Len() != 0 {
		t.Fatalf("oversized write emitted %d bytes", sink.Len())
	}
}

// roundTrip writes msgs onto one stream and checks that they read
// back identical and in order, trace contexts included.
func roundTrip(t *testing.T, msgs []Message) {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("message %d mismatch", i)
		}
		if (got.Trace == nil) != (want.Trace == nil) || (want.Trace != nil && *got.Trace != *want.Trace) {
			t.Fatalf("message %d trace = %+v, want %+v", i, got.Trace, want.Trace)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after the last message", buf.Len())
	}
}

// TestUntracedRoundTrip: untraced image payloads of every size class,
// empty included, read back intact.
func TestUntracedRoundTrip(t *testing.T) {
	roundTrip(t, []Message{
		{Type: MsgImage},
		{Type: MsgImage, Payload: []byte{0}},
		{Type: MsgImage, Payload: bytes.Repeat([]byte{7}, 1000)},
		{Type: MsgImage, Payload: bytes.Repeat([]byte{0xFF}, 1<<16)},
	})
}

// TestTracedRoundTrip: traced and untraced messages share one
// stream, and each trace block survives the write/read cycle intact.
func TestTracedRoundTrip(t *testing.T) {
	roundTrip(t, []Message{
		{Type: MsgImage, Payload: bytes.Repeat([]byte{7}, 500),
			Trace: &TraceCtx{TraceID: 0xDEADBEEFCAFE, FrameID: 1293, Hop: 3, OriginUnixNano: 1_700_000_000_123_456_789}},
		{Type: MsgImage, Payload: []byte{1, 2, 3}},
		{Type: MsgAck, Payload: []byte{9}, Trace: &TraceCtx{TraceID: 1, FrameID: 2, Hop: 1}},
	})
}

// checkCorruptionDetected frames "hello-world", applies corrupt to its
// bytes and appends an intact control message. The corrupted frame
// must fail the checksum, and the stream must stay frame-aligned so the
// next message reads clean.
func checkCorruptionDetected(t *testing.T, trace *TraceCtx, corrupt func(wire []byte)) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgImage, Payload: []byte("hello-world"), Trace: trace}); err != nil {
		t.Fatal(err)
	}
	corrupt(buf.Bytes())
	if err := WriteMessage(&buf, Message{Type: MsgControl, Payload: []byte("intact")}); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	if m, err := ReadMessage(r); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt frame read as (%q, %v), want ErrChecksum", m.Payload, err)
	}
	got, err := ReadMessage(r)
	if err != nil {
		t.Fatalf("post-corruption read: %v", err)
	}
	if got.Type != MsgControl || string(got.Payload) != "intact" {
		t.Fatalf("post-corruption message mismatch: %+v", got)
	}
}

func TestReadMessageDetectsCorruptionAndRealigns(t *testing.T) {
	checkCorruptionDetected(t, nil, func(w []byte) { w[6+3] ^= 0xFF })
}

// TestReadMessageDetectsTypeFlip: the type byte is covered by the CRC too.
func TestReadMessageDetectsTypeFlip(t *testing.T) {
	checkCorruptionDetected(t, nil, func(w []byte) { w[4] ^= 0xFF })
}

// TestTraceBlockCoveredByCRC: the trace block is load-bearing
// routing metadata, not an unprotected annex.
func TestTraceBlockCoveredByCRC(t *testing.T) {
	checkCorruptionDetected(t, &TraceCtx{TraceID: 5, FrameID: 6, Hop: 1}, func(w []byte) { w[6] ^= 0xFF })
}

// TestReadMessageChecksCRCWithFlagCleared: the reader checks the CRC
// whatever the flags byte says, so clearing flagCRC does not let a
// corrupted payload through.
func TestReadMessageChecksCRCWithFlagCleared(t *testing.T) {
	checkCorruptionDetected(t, nil, func(w []byte) {
		w[5] &^= flagCRC
		w[6+3] ^= 0x40 // "hello-world" -> "hel,o-world"
	})
}

// TestParseHelloRoleAndKind: a one-byte hello is a viewer, a second
// byte names the client kind, and an empty hello is refused.
func TestParseHelloRoleAndKind(t *testing.T) {
	if role, kind, err := ParseHello(HelloPayload(RoleDisplay, KindViewer)); err != nil || role != RoleDisplay || kind != KindViewer {
		t.Fatalf("viewer hello = (%v,%d,%v)", role, kind, err)
	}
	if role, kind, err := ParseHello(HelloPayload(RoleDisplay, KindRelay)); err != nil || role != RoleDisplay || kind != KindRelay {
		t.Fatalf("relay hello = (%v,%d,%v)", role, kind, err)
	}
	if _, _, err := ParseHello(nil); err == nil {
		t.Fatal("empty hello accepted")
	}
}

// TestEndpointRegisteredAfterHandshake: a dialed endpoint is registered and healthy
// once the handshake returns.
func TestEndpointRegisteredAfterHandshake(t *testing.T) {
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ep, err := Dial(d.Addr().String(), RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	health := d.Health()
	if len(health) != 1 || health[0].Role != "renderer" || !health[0].Healthy {
		t.Fatalf("health = %+v", health)
	}
}

func TestEndpointPingMeasuresRTT(t *testing.T) {
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ep, err := Dial(d.Addr().String(), RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Ping(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ep.RTT() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if ep.RTT() <= 0 {
		t.Fatal("no pong observed")
	}
}

func TestDaemonEvictsSilentPeer(t *testing.T) {
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetHeartbeat(10*time.Millisecond, 40*time.Millisecond)

	// Handshake by hand, then go silent: no pongs, ever.
	conn, err := net.Dial("tcp", d.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMessage(conn, Message{Type: MsgHello, Payload: HelloPayload(RoleDisplay, KindViewer)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(conn); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().PeersEvicted.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := d.Stats().PeersEvicted.Load(); got != 1 {
		t.Fatalf("PeersEvicted = %d, want 1", got)
	}
	if d.Stats().PingsSent.Load() == 0 {
		t.Fatal("no heartbeat pings were sent")
	}
	// The evicted connection is actually closed.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1024)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

func TestEndpointDropsCorruptFramesAndCounts(t *testing.T) {
	// Daemon -> endpoint direction: feed the endpoint a corrupt frame
	// by hand and verify it is counted, dropped, and the connection
	// survives.
	srv, cli := net.Pipe()
	defer srv.Close()
	go func() {
		// Daemon side of the handshake.
		ReadMessage(srv)
		WriteMessage(srv, Message{Type: MsgHello, Payload: HelloPayload(RoleDisplay, KindViewer)})
		var buf bytes.Buffer
		WriteMessage(&buf, Message{Type: MsgControl, Payload: []byte("bad")})
		wire := buf.Bytes()
		wire[6] ^= 0xFF // corrupt the first payload byte
		srv.Write(wire)
		WriteMessage(srv, Message{Type: MsgControl, Payload: []byte("good")})
		// Drain the endpoint's writes so pings/byes never block.
		for {
			if _, err := ReadMessage(srv); err != nil {
				return
			}
		}
	}()
	ep, err := NewEndpoint(cli, RoleDisplay)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	select {
	case m := <-ep.Inbox():
		if string(m.Payload) != "good" {
			t.Fatalf("delivered %q, want the clean frame", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("clean frame never arrived")
	}
	if got := ep.CorruptDropped(); got != 1 {
		t.Fatalf("CorruptDropped = %d, want 1", got)
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{Base: time.Millisecond, Max: 16 * time.Millisecond, Factor: 2, Jitter: -1, MaxAttempts: 8}.withDefaults()
	want := []time.Duration{1, 2, 4, 8, 16, 16}
	for i, w := range want {
		if got := p.delay(i+1, nil); got != w*time.Millisecond {
			t.Errorf("delay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	// Jitter is deterministic under a fixed seed and bounded.
	j := RetryPolicy{Base: 10 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5, MaxAttempts: 8}
	mk := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		var out []time.Duration
		for a := 1; a <= 5; a++ {
			d := j.delay(a, rng)
			base := time.Duration(float64(10*time.Millisecond) * pow(2, a-1))
			if d < base/2 || d > base+base/2 {
				t.Errorf("attempt %d: delay %v outside +/-50%% of %v", a, d, base)
			}
			out = append(out, d)
		}
		return out
	}
	a, b := mk(3), mk(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func pow(b float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= b
	}
	return out
}

func TestSessionGivesUpAfterBoundedAttempts(t *testing.T) {
	var sleeps []time.Duration
	_, err := NewSession(SessionConfig{
		Role: RoleRenderer,
		Dial: func() (net.Conn, error) { return nil, errors.New("refused") },
		Retry: RetryPolicy{Base: time.Millisecond, Max: 8 * time.Millisecond,
			Factor: 2, Jitter: -1, MaxAttempts: 5},
		Sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	if err == nil {
		t.Fatal("session connected through a dead dialer")
	}
	// Attempt 1 dials immediately; attempts 2..5 back off
	// exponentially up to the cap.
	want := []time.Duration{2, 4, 8, 8}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %d backoffs", sleeps, len(want))
	}
	for i, w := range want {
		if sleeps[i] != w*time.Millisecond {
			t.Errorf("backoff %d = %v, want %v", i, sleeps[i], w*time.Millisecond)
		}
	}
}

func TestSessionSendFailsFastWhileDown(t *testing.T) {
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := d.Addr().String()
	block := make(chan struct{})
	dials := 0
	s, err := NewSession(SessionConfig{
		Role: RoleRenderer,
		Dial: func() (net.Conn, error) {
			dials++
			if dials > 1 {
				<-block // hold reconnection down
			}
			return net.Dial("tcp", addr)
		},
		Retry: RetryPolicy{Base: time.Millisecond, Max: time.Millisecond, Factor: 1, Jitter: -1, MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d.Close() // drop the link
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := s.Send(Message{Type: MsgPing, Payload: MarshalPing(1)}); errors.Is(err, ErrReconnecting) {
			close(block)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(block)
	t.Fatal("Send never returned ErrReconnecting while down")
}

// checkFrameLayout frames a one-byte image and locks the wire layout:
// big-endian payload-only length, type, flags, the 21-byte trace block
// when flagTrace is set, then payload and CRC trailer.
func checkFrameLayout(t *testing.T, trace *TraceCtx, wantLen int, wantFlags byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgImage, Payload: []byte{0xAB}, Trace: trace}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	if len(wire) != wantLen {
		t.Fatalf("frame length %d, want %d", len(wire), wantLen)
	}
	if n := binary.BigEndian.Uint32(wire[:4]); n != 1 {
		t.Fatalf("length field = %d, want payload-only 1", n)
	}
	if wire[4] != byte(MsgImage) || wire[5] != wantFlags {
		t.Fatalf("type/flags = %x %x, want %x %x", wire[4], wire[5], byte(MsgImage), wantFlags)
	}
	if wire[len(wire)-5] != 0xAB {
		t.Fatalf("payload byte = %x, want AB before the trailer", wire[len(wire)-5])
	}
	if trace == nil {
		return
	}
	if id := binary.BigEndian.Uint64(wire[6:14]); id != trace.TraceID {
		t.Fatalf("trace id on wire = %x", id)
	}
	if f := binary.BigEndian.Uint32(wire[14:18]); f != trace.FrameID {
		t.Fatalf("frame id on wire = %x", f)
	}
	if wire[18] != trace.Hop {
		t.Fatalf("hop on wire = %d", wire[18])
	}
}

// TestUntracedFrameLayout pins the untraced frame at 6 + n + 4 bytes.
func TestUntracedFrameLayout(t *testing.T) {
	checkFrameLayout(t, nil, 6+1+4, flagCRC)
}

// TestTracedFrameLayout pins the traced frame at 6 + 21 + n + 4 bytes.
func TestTracedFrameLayout(t *testing.T) {
	checkFrameLayout(t, &TraceCtx{TraceID: 0x0102030405060708, FrameID: 0x0A0B0C0D, Hop: 2, OriginUnixNano: 1},
		6+21+1+4, flagCRC|flagTrace)
}

// TestDaemonForwardsTraceHopAdvanced: a traced image from a renderer
// reaches the display with the same trace and the hop advanced.
func TestDaemonForwardsTraceHopAdvanced(t *testing.T) {
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	disp, err := Dial(d.Addr().String(), RoleDisplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()
	rend, err := Dial(d.Addr().String(), RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()

	payload := bytes.Repeat([]byte{3}, 64)
	if err := rend.Send(Message{
		Type: MsgImage, Payload: payload,
		Trace: &TraceCtx{TraceID: 77, FrameID: 8, Hop: 1, OriginUnixNano: 42},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-disp.Inbox():
		if m.Type != MsgImage || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("display got type %d, %d bytes", m.Type, len(m.Payload))
		}
		if m.Trace == nil {
			t.Fatal("display lost the trace context")
		}
		if m.Trace.TraceID != 77 || m.Trace.FrameID != 8 || m.Trace.Hop != 2 || m.Trace.OriginUnixNano != 42 {
			t.Fatalf("forwarded trace = %+v, want id 77 frame 8 hop 2 origin 42", m.Trace)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("display never received the frame")
	}
}

// FuzzReadMessage: arbitrary bytes never panic the reader or yield a
// payload over the limit, and any message written, traced or not,
// reads back identical.
func FuzzReadMessage(f *testing.F) {
	frame := func(m Message) []byte {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(frame(Message{Type: MsgImage, Payload: []byte("untraced")}))
	f.Add(frame(Message{Type: MsgImage, Payload: []byte("traced"),
		Trace: &TraceCtx{TraceID: 1, FrameID: 2, Hop: 3, OriginUnixNano: 4}}))
	f.Add(frame(Message{Type: MsgControl, Payload: []byte("truncated")})[:10])

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := ReadMessage(bytes.NewReader(data)); err == nil && len(m.Payload) > maxMessage {
			t.Fatalf("payload of %d bytes over the %d limit", len(m.Payload), maxMessage)
		}
		var typ MsgType
		if len(data) > 0 {
			typ = MsgType(data[0])
		}
		var trace *TraceCtx
		if len(data) >= traceCtxSize {
			trace = parseTraceCtx(data)
		}
		for _, want := range []Message{{Type: typ, Payload: data}, {Type: typ, Payload: data, Trace: trace}} {
			var buf bytes.Buffer
			if err := WriteMessage(&buf, want); err != nil {
				t.Fatal(err)
			}
			got, err := ReadMessage(&buf)
			if err != nil {
				t.Fatalf("read back: %v", err)
			}
			if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("read back type %d payload %x, want type %d payload %x", got.Type, got.Payload, want.Type, want.Payload)
			}
			if (got.Trace == nil) != (want.Trace == nil) || (want.Trace != nil && *got.Trace != *want.Trace) {
				t.Fatalf("read back trace %+v, want %+v", got.Trace, want.Trace)
			}
		}
	})
}
