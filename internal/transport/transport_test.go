package transport

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/wan"
)

// TestMessageFraming: the handshake and control messages, hello, busy
// and bye included, go through the one framing and read back in order.
func TestMessageFraming(t *testing.T) {
	roundTrip(t, []Message{
		{Type: MsgHello, Payload: HelloPayload(RoleDisplay, KindRelay)},
		{Type: MsgImage, Payload: bytes.Repeat([]byte{7}, 1000)},
		{Type: MsgPing, Payload: MarshalPing(42)},
		{Type: MsgBusy, Payload: MarshalBusy(time.Second, "over budget")},
		{Type: MsgBye},
	})
}

func TestReadMessageRejectsHugeLength(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0xff, 0xff, 0xff, 0xff, 1, flagCRC})
	if _, err := ReadMessage(buf); err == nil {
		t.Fatal("huge length accepted")
	}
}

func TestReadMessageTruncated(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0, 0, 0, 10, 2, 1, 2})
	if _, err := ReadMessage(buf); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestImageMsgRoundTrip(t *testing.T) {
	m := &ImageMsg{
		FrameID: 42, PieceIndex: 2, PieceCount: 8,
		X0: 0, Y0: 64, X1: 256, Y1: 96, W: 256, H: 256,
		Codec: "jpeg+lzo", Data: []byte{9, 8, 7},
	}
	p, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalImage(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameID != 42 || got.PieceIndex != 2 || got.PieceCount != 8 ||
		got.Codec != "jpeg+lzo" || !bytes.Equal(got.Data, m.Data) ||
		got.X0 != 0 || got.Y0 != 64 || got.X1 != 256 || got.Y1 != 96 || got.W != 256 || got.H != 256 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestImageMsgValidation(t *testing.T) {
	if _, err := UnmarshalImage(nil); err == nil {
		t.Fatal("nil accepted")
	}
	base := &ImageMsg{FrameID: 1, PieceCount: 1, X1: 4, Y1: 4, W: 4, H: 4, Codec: "raw"}
	p, _ := base.Marshal()
	if _, err := UnmarshalImage(p); err != nil {
		t.Fatal(err)
	}
	bad := *base
	bad.PieceIndex = 5 // >= PieceCount
	p, _ = bad.Marshal()
	if _, err := UnmarshalImage(p); err == nil {
		t.Fatal("bad piece index accepted")
	}
	bad = *base
	bad.X1 = 10 // > W
	p, _ = bad.Marshal()
	if _, err := UnmarshalImage(p); err == nil {
		t.Fatal("region beyond frame accepted")
	}
}

func TestControlMsgRoundTrip(t *testing.T) {
	m := &ControlMsg{Tag: "view", Data: []byte{1, 2, 3, 4}}
	p, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalControl(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != "view" || !bytes.Equal(got.Data, m.Data) {
		t.Fatalf("%+v", got)
	}
	if _, err := UnmarshalControl(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := UnmarshalControl([]byte{200, 'a'}); err == nil {
		t.Fatal("truncated tag accepted")
	}
}

func startDaemon(t *testing.T) *Daemon {
	t.Helper()
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestDaemonForwardsImagesToDisplays(t *testing.T) {
	testutil.CheckGoroutines(t)
	d := startDaemon(t)
	addr := d.Addr().String()

	disp, err := Dial(addr, RoleDisplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()
	rend, err := Dial(addr, RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()

	im := &ImageMsg{FrameID: 7, PieceCount: 1, X1: 8, Y1: 8, W: 8, H: 8, Codec: "raw", Data: []byte{1, 2}}
	if err := rend.SendImage(im); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-disp.Inbox():
		if m.Type != MsgImage {
			t.Fatalf("got type %d", m.Type)
		}
		got, err := UnmarshalImage(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.FrameID != 7 {
			t.Fatalf("frame %d", got.FrameID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("image never arrived")
	}
	if d.Stats().ImagesForwarded.Load() != 1 {
		t.Fatalf("forwarded = %d", d.Stats().ImagesForwarded.Load())
	}
}

func TestDaemonRoutesControlToRenderers(t *testing.T) {
	d := startDaemon(t)
	addr := d.Addr().String()

	rend, err := Dial(addr, RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()
	disp, err := Dial(addr, RoleDisplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()

	if err := disp.SendControl(&ControlMsg{Tag: "colormap", Data: []byte("jet")}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-rend.Inbox():
		c, err := UnmarshalControl(m.Payload)
		if err != nil || c.Tag != "colormap" {
			t.Fatalf("%v %v", c, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("control never arrived")
	}
}

func TestDaemonMultipleDisplays(t *testing.T) {
	testutil.CheckGoroutines(t)
	d := startDaemon(t)
	addr := d.Addr().String()
	var disps []*Endpoint
	for i := 0; i < 3; i++ {
		e, err := Dial(addr, RoleDisplay, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		disps = append(disps, e)
	}
	rend, err := Dial(addr, RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()
	im := &ImageMsg{FrameID: 1, PieceCount: 1, X1: 2, Y1: 2, W: 2, H: 2, Codec: "raw"}
	if err := rend.SendImage(im); err != nil {
		t.Fatal(err)
	}
	for i, e := range disps {
		select {
		case m := <-e.Inbox():
			if m.Type != MsgImage {
				t.Fatalf("display %d got type %d", i, m.Type)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("display %d never got the image", i)
		}
	}
}

func TestDaemonIgnoresWrongDirection(t *testing.T) {
	d := startDaemon(t)
	addr := d.Addr().String()
	rend, err := Dial(addr, RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()
	disp, err := Dial(addr, RoleDisplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()
	// A display sending an image must not reach renderers or displays.
	if err := disp.SendImage(&ImageMsg{FrameID: 9, PieceCount: 1, X1: 1, Y1: 1, W: 1, H: 1, Codec: "raw"}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-rend.Inbox():
		t.Fatalf("renderer received unexpected %d", m.Type)
	case <-time.After(200 * time.Millisecond):
	}
}

func TestDaemonDropsWhenDisplayStalls(t *testing.T) {
	d := startDaemon(t)
	d.SetBufferFrames(1)
	addr := d.Addr().String()
	// A display that never reads from its socket: fill its daemon
	// buffer and verify drops are counted rather than the daemon
	// stalling.
	disp, err := Dial(addr, RoleDisplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()
	rend, err := Dial(addr, RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()
	big := &ImageMsg{FrameID: 0, PieceCount: 1, X1: 100, Y1: 100, W: 100, H: 100, Codec: "raw", Data: make([]byte, 1<<20)}
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 300 && d.Stats().ImagesDropped.Load() == 0; i++ {
		big.FrameID = uint32(i)
		if err := rend.SendImage(big); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			break
		}
	}
	if d.Stats().ImagesDropped.Load() == 0 {
		t.Skip("no drops observed (fast drain); drop path covered elsewhere")
	}
}

func TestDaemonRejectsBadHandshake(t *testing.T) {
	d := startDaemon(t)
	addr := d.Addr().String()
	// Unknown role byte: the daemon closes without a welcome, so Dial
	// fails.
	if e, err := Dial(addr, Role(9), nil); err == nil {
		e.Close()
		t.Fatal("bad role accepted")
	}
}

func TestRoleString(t *testing.T) {
	if RoleRenderer.String() != "renderer" || RoleDisplay.String() != "display" {
		t.Fatal("role strings")
	}
	if Role(9).String() != "role(9)" {
		t.Fatalf("got %q", Role(9).String())
	}
}

func TestEndpointCloseIdempotent(t *testing.T) {
	d := startDaemon(t)
	e, err := Dial(d.Addr().String(), RoleDisplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFraming(b *testing.B) {
	m := Message{Type: MsgImage, Payload: make([]byte, 64<<10)}
	var buf bytes.Buffer
	b.SetBytes(int64(len(m.Payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteMessage(&buf, m); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleListenAndServe() {
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer d.Close()
	fmt.Println(d.Addr() != nil)
	// Output: true
}

func TestAckMsgRoundTrip(t *testing.T) {
	m := &AckMsg{FrameID: 99, RecvUnixNano: 1234567890123, Bytes: 4096}
	got, err := UnmarshalAck(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := UnmarshalAck([]byte{1, 2}); err == nil {
		t.Fatal("short ack accepted")
	}
}

func TestAdvertiseRoundTrip(t *testing.T) {
	names := []string{"raw", "jpeg", "jpeg+lzo"}
	got := UnmarshalAdvertise(MarshalAdvertise(names))
	if len(got) != 3 || got[0] != "raw" || got[2] != "jpeg+lzo" {
		t.Fatalf("round trip: %v", got)
	}
	if UnmarshalAdvertise(nil) != nil {
		t.Fatal("empty advertisement should be nil")
	}
}

// The plain daemon counts display acks and ignores renderer codec
// advertisements rather than dropping the connections.
func TestDaemonToleratesAckAndAdvertise(t *testing.T) {
	d := startDaemon(t)
	addr := d.Addr().String()
	rend, err := Dial(addr, RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()
	disp, err := Dial(addr, RoleDisplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()
	if err := rend.Send(Message{Type: MsgAdvertise, Payload: MarshalAdvertise([]string{"jpeg"})}); err != nil {
		t.Fatal(err)
	}
	ack := AckMsg{FrameID: 1, RecvUnixNano: 42}
	if err := disp.Send(Message{Type: MsgAck, Payload: ack.Marshal()}); err != nil {
		t.Fatal(err)
	}
	// Both connections must still forward traffic afterwards.
	if err := rend.SendImage(&ImageMsg{FrameID: 2, PieceCount: 1, X1: 1, Y1: 1, W: 1, H: 1, Codec: "raw"}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-disp.Inbox():
		if m.Type != MsgImage {
			t.Fatalf("got type %d", m.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("image never arrived after ack/advertise")
	}
	deadline := time.Now().Add(2 * time.Second)
	for d.Stats().AcksReceived.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if d.Stats().AcksReceived.Load() != 1 {
		t.Fatalf("acks = %d", d.Stats().AcksReceived.Load())
	}
}

// One display on a stalled WAN-shaped connection must not delay the
// fast displays: forwarding is per-display buffered with drop-oldest,
// so the fast viewer sees every frame promptly while the stalled one
// accumulates drops, never an unbounded backlog.
func TestDaemonStalledWANViewerDoesNotDelayFastViewer(t *testing.T) {
	testutil.CheckGoroutines(t)
	d := startDaemon(t)
	d.SetBufferFrames(2)
	addr := d.Addr().String()

	fast, err := Dial(addr, RoleDisplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	// The stalled viewer: its daemon-side connection is shaped to a
	// crawling link (1 KB/s), so the daemon's writer goroutine for it
	// blocks almost immediately.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	stalledConn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	serverSide := <-accepted
	crawl := wan.Profile{Name: "crawl", Latency: 50 * time.Millisecond, Bandwidth: 1e3, Burst: 512}
	d.ServeConn(wan.Shape(serverSide, crawl))
	stalled, err := NewEndpoint(stalledConn, RoleDisplay)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	rend, err := Dial(addr, RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()

	// Drain the fast viewer concurrently, as a real display would.
	const n = 30
	gotCh := make(chan int, 1)
	go func() {
		got := 0
		for m := range fast.Inbox() {
			if m.Type == MsgImage {
				got++
				if got == n {
					break
				}
			}
		}
		gotCh <- got
	}()

	payload := make([]byte, 32<<10)
	start := time.Now()
	for i := 0; i < n; i++ {
		im := &ImageMsg{FrameID: uint32(i), PieceCount: 1, X1: 100, Y1: 100, W: 100, H: 100, Codec: "raw", Data: payload}
		if err := rend.SendImage(im); err != nil {
			t.Fatal(err)
		}
		time.Sleep(3 * time.Millisecond)
	}
	sendTime := time.Since(start)
	// 30 × 32 KB over the 1 KB/s link would take ~16 minutes if the
	// renderer or the fast path were serialized behind it.
	if sendTime > 10*time.Second {
		t.Fatalf("renderer blocked %v behind the stalled viewer", sendTime)
	}

	select {
	case got := <-gotCh:
		if got < n {
			t.Fatalf("fast viewer received %d/%d frames", got, n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fast viewer starved behind the stalled one")
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().ImagesDropped.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if d.Stats().ImagesDropped.Load() == 0 {
		t.Fatal("stalled viewer accumulated no drops — backlog is unbounded")
	}
}

// Close must tear down every per-connection goroutine (handler and
// writer) deterministically — no goroutine leaks.
func TestDaemonCloseLeaksNoGoroutines(t *testing.T) {
	testutil.CheckGoroutines(t)
	before := runtime.NumGoroutine()
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := d.Addr().String()
	var eps []*Endpoint
	for i := 0; i < 3; i++ {
		e, err := Dial(addr, RoleDisplay, nil)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, e)
	}
	rend, err := Dial(addr, RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	eps = append(eps, rend)
	for i := 0; i < 5; i++ {
		if err := rend.SendImage(&ImageMsg{FrameID: uint32(i), PieceCount: 1, X1: 1, Y1: 1, W: 1, H: 1, Codec: "raw"}); err != nil {
			t.Fatal(err)
		}
	}
	// A half-open connection that never sends its hello must not keep
	// Close waiting.
	halfOpen, silent := net.Pipe()
	defer silent.Close()
	d.ServeConn(halfOpen)
	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on a connection that never sent a hello")
	}
	for _, e := range eps {
		e.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 64<<10)
	nb := runtime.Stack(buf, true)
	t.Fatalf("goroutines: %d before, %d after close\n%s", before, runtime.NumGoroutine(), buf[:nb])
}

// ServeConn registers a pre-established connection exactly like an
// accepted one, and refuses connections after Close.
func TestDaemonServeConn(t *testing.T) {
	testutil.CheckGoroutines(t)
	d := startDaemon(t)
	a, b := net.Pipe()
	d.ServeConn(b)
	disp, err := NewEndpoint(a, RoleDisplay)
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()
	rend, err := Dial(d.Addr().String(), RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()
	if err := rend.SendImage(&ImageMsg{FrameID: 3, PieceCount: 1, X1: 1, Y1: 1, W: 1, H: 1, Codec: "raw"}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-disp.Inbox():
		if m.Type != MsgImage {
			t.Fatalf("type %d", m.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("piped display got nothing")
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	x, y := net.Pipe()
	d.ServeConn(y) // must close the conn, not hang
	x.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := x.Read(make([]byte, 1)); err == nil {
		t.Fatal("conn served after Close")
	}
}

// When the daemon dies mid-stream, connected endpoints observe a
// closed inbox rather than hanging.
func TestDaemonDeathClosesEndpoints(t *testing.T) {
	testutil.CheckGoroutines(t)
	d, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	disp, err := Dial(d.Addr().String(), RoleDisplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-disp.Inbox():
		if ok {
			t.Fatal("message after daemon death")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("inbox never closed after daemon death")
	}
}
