package stream_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/display"
	"repro/internal/img"
	"repro/internal/stream"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wan"
)

// noiseFrame builds a frame JPEG cannot compress to nothing, so the
// ladder rungs separate by size (mirrors the internal test helper).
func noiseFrame(w, h int) *img.Frame {
	f := img.NewFrame(w, h)
	state := uint32(0x9e3779b9)
	for i := range f.Pix {
		state = state*1664525 + 1013904223
		f.Pix[i] = byte(state >> 24)
	}
	return f
}

// pipeConn returns a connected endpoint/broker conn pair, shaping the
// broker→endpoint direction to the profile (zero profile = unshaped).
func pipeConn(t *testing.T, b *stream.Broker, role transport.Role, link wan.Profile) *transport.Endpoint {
	t.Helper()
	client, server := net.Pipe()
	var sc net.Conn = server
	if link.Bandwidth > 0 || link.Latency > 0 {
		sc = wan.Shape(server, link)
	}
	b.ServeConn(sc)
	ep, err := transport.NewEndpoint(client, role)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

// sendFrames pushes n raw-encoded copies of f through the renderer
// endpoint, one frame per id, with the given inter-frame gap.
func sendFrames(t *testing.T, rend *transport.Endpoint, f *img.Frame, n int, gap time.Duration) {
	t.Helper()
	raw, err := compress.Raw{}.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		im := &transport.ImageMsg{
			FrameID:    uint32(i),
			PieceCount: 1,
			X1:         uint16(f.W), Y1: uint16(f.H),
			W: uint16(f.W), H: uint16(f.H),
			Codec: "raw",
			Data:  raw,
		}
		if err := rend.SendImage(im); err != nil {
			t.Fatalf("send frame %d: %v", i, err)
		}
		if gap > 0 {
			time.Sleep(gap)
		}
	}
}

func drainFrames(v *display.Viewer, got chan<- *display.Frame) {
	for fr := range v.Frames() {
		select {
		case got <- fr:
		default:
		}
	}
}

func TestBrokerFanoutSharesEncodes(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := stream.NewBroker(stream.Config{Target: 100 * time.Millisecond, QueueDepth: 4, CacheFrames: 8})
	defer b.Close()

	var viewers []*display.Viewer
	for i := 0; i < 3; i++ {
		ep := pipeConn(t, b, transport.RoleDisplay, wan.Profile{})
		v := display.NewViewer(ep)
		viewers = append(viewers, v)
		go func() {
			for range v.Frames() {
			}
		}()
	}
	rend := pipeConn(t, b, transport.RoleRenderer, wan.Profile{})
	f := noiseFrame(32, 32)
	const n = 10
	sendFrames(t, rend, f, n, 5*time.Millisecond)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := 0
		for _, v := range viewers {
			if v.Stats().Frames >= n {
				done++
			}
		}
		if done == len(viewers) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, v := range viewers {
		if got := v.Stats().Frames; got < n {
			t.Fatalf("viewer %d saw %d/%d frames", i, got, n)
		}
	}
	// All three clients sit on identical (unshaped) links, so they
	// share one operating point: each frame is encoded once, not once
	// per client.
	st := b.Stats()
	if st.FramesIn.Load() != n {
		t.Fatalf("frames in = %d", st.FramesIn.Load())
	}
	if enc := st.Encodes.Load(); enc != n {
		t.Fatalf("encodes = %d, want %d (one per frame, shared 3 ways)", enc, n)
	}
	if hits := b.Cache().Stats().Hits.Load(); hits != 2*n {
		t.Fatalf("cache hits = %d, want %d", hits, 2*n)
	}
}

func TestBrokerSlowClientDropsInsteadOfBacklog(t *testing.T) {
	testutil.CheckGoroutines(t)
	const depth = 3
	b := stream.NewBroker(stream.Config{Target: 80 * time.Millisecond, QueueDepth: depth, CacheFrames: 4})
	defer b.Close()

	fast := display.NewViewer(pipeConn(t, b, transport.RoleDisplay, wan.Profile{}))
	// ~10 KB/s: a 3 KB JPEG frame takes ~0.3 s, far slower than the
	// renderer's frame gap.
	slowLink := wan.Profile{Name: "slow", Latency: 20 * time.Millisecond, Bandwidth: 10e3, Burst: 2 << 10}
	slow := display.NewViewer(pipeConn(t, b, transport.RoleDisplay, slowLink))
	for _, v := range []*display.Viewer{fast, slow} {
		v := v
		go func() {
			for range v.Frames() {
			}
		}()
	}

	rend := pipeConn(t, b, transport.RoleRenderer, wan.Profile{})
	f := noiseFrame(64, 64)
	const n = 40
	start := time.Now()
	sendFrames(t, rend, f, n, 2*time.Millisecond)
	ingestTime := time.Since(start)
	// The renderer's sends must never block on the slow client: the
	// whole burst has to clear in well under the slow link's per-frame
	// transfer time times n.
	if ingestTime > 5*time.Second {
		t.Fatalf("renderer took %v to send %d frames — blocked by slow client", ingestTime, n)
	}

	// Fast client keeps up (sees most frames), slow client converges
	// on the newest frames and drops the rest.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && fast.Stats().Frames < n*3/4 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := fast.Stats().Frames; got < n*3/4 {
		t.Fatalf("fast viewer saw only %d/%d frames", got, n)
	}
	var slowSnap *stream.ClientSnapshot
	for _, cs := range b.ClientSnapshots() {
		cs := cs
		if cs.Drops > 0 {
			slowSnap = &cs
		}
		if cs.QueueLen > depth {
			t.Fatalf("client %d queue length %d exceeds bound %d", cs.ID, cs.QueueLen, depth)
		}
	}
	if slowSnap == nil {
		t.Fatalf("no client recorded drops; snapshots: %+v", b.ClientSnapshots())
	}
	if b.Stats().Drops.Load() == 0 {
		t.Fatal("broker drop counter is zero")
	}
}

func TestBrokerAdaptsQualityToSlowLink(t *testing.T) {
	testutil.CheckGoroutines(t)
	target := 120 * time.Millisecond
	b := stream.NewBroker(stream.Config{Target: target, QueueDepth: 2, CacheFrames: 4, UpHold: 3})
	defer b.Close()

	// The Japan–UCD profile: 45 KB/s. Noise frames at 128² run tens
	// of KB at the upper rungs — ~0.5–1 s per frame, so the
	// controller must walk down the ladder (whose floor is the tiny
	// prog preview pass) to hold the 120 ms target. Feed frames for
	// ~1.5 s so the pacer gets enough send cycles after the walk.
	slow := display.NewViewer(pipeConn(t, b, transport.RoleDisplay, wan.JapanUCD()))
	go func() {
		for range slow.Frames() {
		}
	}()
	rend := pipeConn(t, b, transport.RoleRenderer, wan.Profile{})
	f := noiseFrame(128, 128)
	sendFrames(t, rend, f, 60, 25*time.Millisecond)

	top := stream.DefaultLadder()[0]
	deadline := time.Now().Add(15 * time.Second)
	adapted := false
	for time.Now().Before(deadline) {
		snaps := b.ClientSnapshots()
		if len(snaps) == 1 && snaps[0].FramesSent >= 4 {
			p := snaps[0].Point
			if p != top {
				adapted = true
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !adapted {
		t.Fatalf("controller never left the top rung on a 45 KB/s link; snaps: %+v", b.ClientSnapshots())
	}
	// The ack feedback path populated the RTT estimate.
	if slow.Stats().Frames > 1 {
		if rtt := b.ClientSnapshots()[0].RTT; rtt <= 0 {
			t.Fatalf("rtt estimate empty after %d acked frames", slow.Stats().Frames)
		}
	}
}

func TestBrokerAdvertiseRestrictsLadder(t *testing.T) {
	b := stream.NewBroker(stream.Config{})
	defer b.Close()
	rend := pipeConn(t, b, transport.RoleRenderer, wan.Profile{})
	if err := rend.Send(transport.Message{Type: transport.MsgAdvertise, Payload: transport.MarshalAdvertise([]string{"jpeg"})}); err != nil {
		t.Fatal(err)
	}
	// Give the broker a beat to ingest the advertisement before the
	// display connects.
	time.Sleep(50 * time.Millisecond)
	v := display.NewViewer(pipeConn(t, b, transport.RoleDisplay, wan.Profile{}))
	go func() {
		for range v.Frames() {
		}
	}()
	sendFrames(t, rend, noiseFrame(32, 32), 3, 2*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && v.Stats().Frames < 3 {
		time.Sleep(10 * time.Millisecond)
	}
	if v.Stats().Frames < 3 {
		t.Fatalf("viewer saw %d frames", v.Stats().Frames)
	}
	for _, fr := range v.History() {
		if fr.Codec != "jpeg" {
			t.Fatalf("frame %d arrived as %q despite jpeg-only advertisement", fr.ID, fr.Codec)
		}
	}
}

func TestBrokerFixedPointDisabledCacheEncodesPerClient(t *testing.T) {
	testutil.CheckGoroutines(t)
	fixed := stream.Point{Codec: "jpeg", Quality: 50}
	b := stream.NewBroker(stream.Config{FixedPoint: &fixed, DisableCache: true})
	defer b.Close()
	const clients = 3
	var viewers []*display.Viewer
	for i := 0; i < clients; i++ {
		v := display.NewViewer(pipeConn(t, b, transport.RoleDisplay, wan.Profile{}))
		viewers = append(viewers, v)
		go func() {
			for range v.Frames() {
			}
		}()
	}
	rend := pipeConn(t, b, transport.RoleRenderer, wan.Profile{})
	const n = 5
	sendFrames(t, rend, noiseFrame(32, 32), n, 2*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := 0
		for _, v := range viewers {
			if v.Stats().Frames >= n {
				done++
			}
		}
		if done == clients {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if enc := b.Stats().Encodes.Load(); enc != n*clients {
		t.Fatalf("encodes = %d, want %d (per client, cache disabled)", enc, n*clients)
	}
	for i, v := range viewers {
		for _, fr := range v.History() {
			if fr.Codec != "jpeg" {
				t.Fatalf("viewer %d frame %d codec %q, want fixed jpeg", i, fr.ID, fr.Codec)
			}
		}
	}
}

func TestBrokerCloseLeaksNoGoroutines(t *testing.T) {
	testutil.CheckGoroutines(t)
	before := runtime.NumGoroutine()
	b := stream.NewBroker(stream.Config{})
	var eps []*transport.Endpoint
	for i := 0; i < 3; i++ {
		eps = append(eps, pipeConn(t, b, transport.RoleDisplay, wan.Profile{}))
	}
	rend := pipeConn(t, b, transport.RoleRenderer, wan.Profile{})
	// A half-open connection that never sends its hello must not keep
	// Close waiting.
	halfOpen, silent := net.Pipe()
	defer silent.Close()
	b.ServeConn(halfOpen)
	sendFrames(t, rend, noiseFrame(16, 16), 3, 0)
	time.Sleep(50 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on a connection that never sent a hello")
	}
	for _, ep := range eps {
		ep.Close()
	}
	rend.Close()
	// Endpoint read loops race the conn close; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines: %d before, %d after close\n%s", before, runtime.NumGoroutine(), buf[:n])
}

func TestBrokerListenAndServeTCP(t *testing.T) {
	testutil.CheckGoroutines(t)
	b, err := stream.ListenAndServe("127.0.0.1:0", stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rend, err := transport.Dial(b.Addr().String(), transport.RoleRenderer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rend.Close()
	disp, err := transport.Dial(b.Addr().String(), transport.RoleDisplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := display.NewViewer(disp)
	defer v.Close()
	sendFrames(t, rend, noiseFrame(16, 16), 2, 0)
	select {
	case fr := <-v.Frames():
		if fr.Image.W != 16 {
			t.Fatalf("frame %dx%d", fr.Image.W, fr.Image.H)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no frame over TCP broker")
	}
}

// TestBrokerSplitsProgressiveSends: at a prog operating point the
// broker ships each frame to viewers as a preview chunk followed by a
// refinement tail, so the display paints early and refines in place.
func TestBrokerSplitsProgressiveSends(t *testing.T) {
	testutil.CheckGoroutines(t)
	fixed := stream.Point{Codec: "prog"}
	b := stream.NewBroker(stream.Config{Target: 100 * time.Millisecond, FixedPoint: &fixed})
	defer b.Close()

	ep := pipeConn(t, b, transport.RoleDisplay, wan.Profile{})
	v := display.NewViewer(ep)
	deliveries := make(chan *display.Frame, 16)
	go func() {
		for fr := range v.Frames() {
			deliveries <- fr
		}
	}()

	rend := pipeConn(t, b, transport.RoleRenderer, wan.Profile{})
	f := noiseFrame(32, 32)
	const n = 3
	sendFrames(t, rend, f, n, 20*time.Millisecond)

	// Each frame arrives twice: preview then refinement.
	var previews, refinements int
	timeout := time.After(5 * time.Second)
	for previews+refinements < 2*n {
		select {
		case fr := <-deliveries:
			if fr.Refinement {
				refinements++
				if !fr.Final {
					t.Fatalf("refinement not final: %+v", fr)
				}
				if !fr.Image.Equal(f) {
					t.Fatal("refined frame must be lossless")
				}
			} else {
				previews++
				if fr.Final {
					t.Fatalf("preview marked final: %+v", fr)
				}
			}
		case <-timeout:
			t.Fatalf("saw %d previews + %d refinements, want %d each", previews, refinements, n)
		}
	}
	if previews != n || refinements != n {
		t.Fatalf("previews=%d refinements=%d, want %d each", previews, refinements, n)
	}
	st := v.Stats()
	if st.Frames != n || st.Refinements != n {
		t.Fatalf("viewer stats %+v, want %d frames and %d refinements", st, n, n)
	}
	v.Close()
}
