package stream

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress/prog"
	"repro/internal/display"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obs/provenance"
	"repro/internal/transport"
)

// BrokerStats counts broker-wide activity.
type BrokerStats struct {
	// PiecesIn and FramesIn count renderer input (pieces received,
	// complete frames assembled).
	PiecesIn atomic.Int64
	FramesIn atomic.Int64
	// Encodes counts actual encode invocations; with the fan-out cache
	// this is the cache miss count regardless of client count.
	Encodes atomic.Int64
	// FramesOut and BytesOut count frames delivered to clients.
	FramesOut atomic.Int64
	BytesOut  atomic.Int64
	// Drops counts frames discarded by per-client pacers.
	Drops atomic.Int64
	// ControlsRouted counts user-control messages relayed to
	// renderers.
	ControlsRouted atomic.Int64
	// CorruptDropped counts inbound messages dropped on CRC failure.
	CorruptDropped atomic.Int64
	// BusyRejected counts display handshakes refused with MsgBusy by
	// admission control.
	BusyRejected atomic.Int64
	// Shed counts admitted clients disconnected by the governor's
	// shed step under extreme memory pressure.
	Shed atomic.Int64
}

// Broker is the adaptive display daemon: renderers stream frames in
// (any registered codec), the broker decodes each frame once, and one
// session per display re-encodes it at that client's operating point —
// shared through the EncodeCache — and paces delivery to the client's
// link. It speaks the transport package's wire protocol, so existing
// renderer and display endpoints connect unchanged.
type Broker struct {
	cfg   Config
	cache *EncodeCache
	asm   *display.Assembler
	log   *obs.Logger

	// gov and the byte accounts are the broker's attachment to the
	// process resource governor (all nil-safe when unguarded).
	gov        *guard.Governor
	framesAcct *guard.Account
	pacerAcct  *guard.Account

	// srv owns the connections; display peers carry a client session,
	// renderer peers none.
	srv *transport.Server[*client]

	// advertised is the renderer's codec families (nil until it
	// advertises).
	advertised atomic.Pointer[[]string]

	// ctrlForward, when set, receives every user-control message in
	// addition to the connected renderers — the relay node's hook for
	// passing controls up the tree toward the render site.
	ctrlForward atomic.Pointer[func(transport.Message)]

	// Observability hooks (nil until Instrument/SetTracer): per-stage
	// histograms and the span tracer. Swapped atomically so the
	// sender hot path reads them without a lock.
	tracer  atomic.Pointer[obs.Tracer]
	encodeH atomic.Pointer[obs.Histogram]
	sendH   atomic.Pointer[obs.Histogram]
	ifdH    atomic.Pointer[obs.Histogram]
	lastOut atomic.Int64 // unix nanos of the previous frame send

	// prov records per-frame provenance events when set (nil-safe),
	// and traces maps completed frame IDs to their wire trace context
	// so senders re-attach it (hop-bumped) on fan-out.
	prov    atomic.Pointer[provenance.Log]
	traceMu sync.Mutex
	traces  map[uint32]*transport.TraceCtx

	stats BrokerStats
	// wg tracks the display sessions' sender goroutines.
	wg sync.WaitGroup
}

// client is one display session.
type client struct {
	peer  *transport.Peer[*client]
	est   *Estimator
	ctrl  *Controller
	pacer *Pacer

	sentMu sync.Mutex
	sent   map[uint32]time.Time

	// marshalBuf is the sender goroutine's reusable wire-marshal
	// scratch; only sender touches it, so no locking.
	marshalBuf []byte

	// lastPoint tracks the operating point the sender last encoded at,
	// so a ladder step mid-frame can invalidate the abandoned point's
	// cache entry. Sender-goroutine-local.
	lastPoint    Point
	lastPointSet bool

	framesSent atomic.Int64
	bytesSent  atomic.Int64
	// frameBytes is the size of the last frame encoded for this
	// session.
	frameBytes atomic.Int64
}

// ClientSnapshot is a point-in-time view of one session, for tables
// and experiment output.
type ClientSnapshot struct {
	ID         int
	Remote     string
	Point      Point
	Bandwidth  float64 // bytes per second, EWMA
	RTT        time.Duration
	FramesSent int64
	BytesSent  int64
	Drops      int64
	QueueLen   int
}

// NewBroker builds a broker; Serve or ServeConn attach connections.
func NewBroker(cfg Config) *Broker {
	return newBroker(cfg, nil)
}

func newBroker(cfg Config, ln net.Listener) *Broker {
	cfg = cfg.withDefaults()
	b := &Broker{
		cfg:    cfg,
		cache:  NewEncodeCache(cfg.CacheFrames),
		asm:    display.NewAssembler(),
		log:    obs.NewLogger("broker"),
		traces: map[uint32]*transport.TraceCtx{},
	}
	if cfg.Logf != nil {
		// Compatibility shim: Config.Logf routes the leveled component
		// logger to the caller's printf sink.
		b.log.SetFunc(cfg.Logf)
	}
	if cfg.Guard != nil {
		b.gov = cfg.Guard
		b.framesAcct = b.gov.Account("frames")
		b.pacerAcct = b.gov.Account("pacer")
		b.cache.SetGuard(b.gov.Account("encode-cache"), b.gov.CacheFillPaused)
		b.gov.OnShed(b.shedNewest)
	}
	b.srv = transport.NewServer(ln, transport.Handler[*client]{
		Log:     b.log,
		Corrupt: &b.stats.CorruptDropped,
		Admit:   b.admit,
		Open:    b.open,
		Handle:  b.handle,
		Close: func(p *transport.Peer[*client]) {
			if p.State != nil {
				p.State.pacer.Close()
			}
		},
	})
	return b
}

// Probe acquires and releases the broker's hot-path locks — the
// watchdog's deadlock self-check: it completes instantly on a healthy
// (even idle) broker and blocks when a lock holder is wedged.
func (b *Broker) Probe() {
	b.srv.Count(transport.RoleDisplay) // takes the peer-table lock
	b.traceMu.Lock()
	b.traceMu.Unlock()
}

// shedNewest disconnects the most recently admitted non-relay client,
// reporting whether one was found — the governor's last degradation
// step. Relay clients are spared: they serve whole subtrees.
func (b *Broker) shedNewest() bool {
	var victim *transport.Peer[*client]
	for _, p := range b.srv.Peers(transport.RoleDisplay) {
		if p.Kind != transport.KindRelay {
			victim = p // Peers is ordered by ID: the last is the newest
		}
	}
	if victim == nil {
		return false
	}
	b.stats.Shed.Add(1)
	b.log.Warnf("guard: shedding newest display %d (%s) under memory pressure", victim.ID, victim.Remote)
	// Closing the conn unwinds the session through the normal
	// disconnect path (reader errors, sender drains, pacer closes).
	victim.Close()
	return true
}

// ListenAndServe starts a broker on addr and serves on a background
// goroutine.
func ListenAndServe(addr string, cfg Config) (*Broker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: listen %s: %w", addr, err)
	}
	b := newBroker(cfg, ln)
	go func() { _ = b.Serve(ln) }()
	return b, nil
}

// Addr returns the listen address (nil before Serve).
func (b *Broker) Addr() net.Addr { return b.srv.Addr() }

// Stats exposes the broker counters.
func (b *Broker) Stats() *BrokerStats { return &b.stats }

// Cache exposes the encode cache (stats: hits, misses, evictions).
func (b *Broker) Cache() *EncodeCache { return b.cache }

// Logger exposes the broker's component logger.
func (b *Broker) Logger() *obs.Logger { return b.log }

// SetControlForward installs a sink that receives every user-control
// message from display clients in addition to any connected renderers.
// A relay node forwards them to its upstream session, so controls from
// viewers at the tree's edge still reach the render site. Safe to call
// while serving; nil detaches.
func (b *Broker) SetControlForward(fn func(transport.Message)) {
	if fn == nil {
		b.ctrlForward.Store(nil)
		return
	}
	b.ctrlForward.Store(&fn)
}

// SetTracer attaches a span tracer: each client session records
// pace/encode/send spans on its own "client N" track, and frame
// ingest records on the "broker" track. Safe to call while serving;
// nil detaches.
func (b *Broker) SetTracer(t *obs.Tracer) { b.tracer.Store(t) }

// Instrument registers the broker's counters, encode/send-stage
// histograms, and a per-client series collector on a metrics registry —
// absorbing BrokerStats, the cache stats and the session snapshots
// behind one exposition endpoint. Safe to call while serving.
func (b *Broker) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := &b.stats
	reg.CounterFunc("broker_pieces_in_total", "Renderer image pieces received.", st.PiecesIn.Load)
	reg.CounterFunc("broker_frames_in_total", "Complete frames assembled from renderer input.", st.FramesIn.Load)
	reg.CounterFunc("broker_encodes_total", "Actual encode invocations (cache misses).", st.Encodes.Load)
	reg.CounterFunc("broker_frames_out_total", "Frames delivered to display clients.", st.FramesOut.Load)
	reg.CounterFunc("broker_bytes_out_total", "Frame payload bytes delivered to display clients.", st.BytesOut.Load)
	reg.CounterFunc("broker_drops_total", "Frames discarded by per-client pacers.", st.Drops.Load)
	reg.CounterFunc("broker_controls_routed_total", "User-control messages relayed to renderers.", st.ControlsRouted.Load)
	reg.CounterFunc("broker_corrupt_dropped_total", "Inbound messages dropped on wire CRC failure.", st.CorruptDropped.Load)
	reg.CounterFunc("broker_busy_rejected_total", "Display handshakes refused with MsgBusy by admission control.", st.BusyRejected.Load)
	reg.CounterFunc("broker_shed_total", "Admitted clients disconnected by the governor's shed step.", st.Shed.Load)
	cs := b.cache.Stats()
	reg.CounterFunc("broker_cache_hits_total", "Encode fan-out cache hits.", cs.Hits.Load)
	reg.CounterFunc("broker_cache_misses_total", "Encode fan-out cache misses.", cs.Misses.Load)
	reg.CounterFunc("broker_cache_evictions_total", "Encode fan-out cache evictions.", cs.Evictions.Load)
	reg.GaugeFunc("broker_clients", "Connected display sessions.", func() float64 {
		return float64(b.srv.Count(transport.RoleDisplay))
	})
	b.encodeH.Store(reg.Histogram("broker_encode_seconds",
		"Per-frame encode (or cache lookup) time in the client sender."))
	b.sendH.Store(reg.Histogram("broker_send_seconds",
		"Per-frame socket write time in the client sender."))
	b.ifdH.Store(reg.Histogram("broker_interframe_delay_seconds",
		"Delay between consecutive frames sent to any client."))
	// Per-client sessions come and go; a collector re-emits their
	// series with a client label at every scrape.
	reg.Collect(func(emit obs.Emit) {
		for _, p := range b.srv.Peers(transport.RoleDisplay) {
			c := p.State
			snap := c.snapshot()
			label := fmt.Sprintf(`{client="%d"}`, snap.ID)
			emit("broker_client_frames_sent"+label, "Frames sent to this session.", "counter", float64(snap.FramesSent))
			emit("broker_client_bytes_sent"+label, "Bytes sent to this session.", "counter", float64(snap.BytesSent))
			emit("broker_client_drops"+label, "Frames dropped for this session.", "counter", float64(snap.Drops))
			emit("broker_client_queue_len"+label, "Paced frames queued for this session.", "gauge", float64(snap.QueueLen))
			emit("broker_client_bandwidth_Bps"+label, "Estimated link bandwidth to this session, bytes per second.", "gauge", snap.Bandwidth)
			emit("broker_client_rtt_ms"+label, "Smoothed ack round-trip to this session.", "gauge", float64(snap.RTT)/float64(time.Millisecond))
			emit("broker_client_quality"+label, "Quality of this session's current operating point.", "gauge", float64(snap.Point.Quality))
			emit("broker_client_frame_bytes"+label, "Encoded size of the last frame for this session.", "gauge", float64(c.frameBytes.Load()))
			emit("broker_client_cache_hit_rate"+label, "Encode cache hit rate.", "gauge", b.cache.Stats().HitRate())
		}
	})
}

// Serve accepts connections until the listener closes.
func (b *Broker) Serve(ln net.Listener) error { return b.srv.Serve(ln) }

// ServeConn runs the handshake and session for one pre-established
// connection on a background goroutine — the hook experiments use to
// wrap each accepted display connection in its own wan profile.
func (b *Broker) ServeConn(conn net.Conn) { b.srv.ServeConn(conn) }

// Close stops accepting, tears every session down, and waits for all
// broker goroutines to exit.
func (b *Broker) Close() error {
	err := b.srv.Close()
	b.wg.Wait()
	// Drain the encode cache so the governor's resident-bytes ledger
	// returns to zero once every session has unwound.
	b.cache.Clear()
	return err
}

// admit applies the governor's admission control to displays;
// displays is the number already connected.
func (b *Broker) admit(role transport.Role, kind byte, displays int) (bool, time.Duration) {
	if role != transport.RoleDisplay {
		return true, 0
	}
	ok, retry := b.gov.Admit(kind == transport.KindRelay, displays)
	if !ok {
		b.stats.BusyRejected.Add(1)
	}
	return ok, retry
}

// open starts a display's session: estimator, controller, pacer and
// the sender goroutine. Renderers get no session.
func (b *Broker) open(p *transport.Peer[*client]) *client {
	if p.Role == transport.RoleRenderer {
		// A renderer (re)connecting may restart its frame-ID sequence
		// from zero; a fresh cache generation keeps the previous
		// sequence's entries from being served as this one's frames.
		b.cache.BumpGeneration()
		return nil
	}
	c := &client{
		peer:  p,
		est:   NewEstimator(b.cfg.Alpha),
		pacer: NewPacer(b.cfg.QueueDepth),
		sent:  map[uint32]time.Time{},
	}
	c.ctrl = NewController(c.est, b.cfg.Target, b.cfg.Ladder, b.cfg.Alpha, b.cfg.UpHold)
	if b.gov != nil {
		c.pacer.SetGuard(b.pacerAcct, func() int { return b.gov.PacerDepth(b.cfg.QueueDepth) })
	}
	if adv := b.advertised.Load(); adv != nil {
		c.ctrl.Restrict(*adv)
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.sender(c)
	}()
	return c
}

func (b *Broker) handle(p *transport.Peer[*client], m transport.Message) {
	switch m.Type {
	case transport.MsgImage:
		if p.Role != transport.RoleRenderer {
			return
		}
		if tc := m.Trace; tc != nil {
			b.prov.Load().Record(provenance.Event{
				Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
				Event: provenance.EvReceived, Bytes: len(m.Payload), Link: p.Remote,
			})
		}
		b.ingest(m.Payload, m.Trace)
	case transport.MsgAdvertise:
		if p.Role == transport.RoleRenderer {
			b.setAdvertised(transport.UnmarshalAdvertise(m.Payload))
		}
	case transport.MsgAck:
		if p.Role != transport.RoleDisplay {
			return
		}
		if ack, err := transport.UnmarshalAck(m.Payload); err == nil {
			b.onAck(p.State, ack)
		}
	case transport.MsgControl:
		if p.Role == transport.RoleDisplay {
			b.routeToRenderers(m)
		}
	}
}

// setAdvertised restricts current and future controllers to the
// renderer's codec families.
func (b *Broker) setAdvertised(families []string) {
	if len(families) == 0 {
		return
	}
	// Store before listing the sessions: one opened after the list is
	// taken reads the new families in open.
	b.advertised.Store(&families)
	for _, p := range b.srv.Peers(transport.RoleDisplay) {
		p.State.ctrl.Restrict(families)
	}
	b.log.Infof("renderer advertises %v", families)
}

// SetProvenance attaches a frame-provenance log: ingest, encode, send
// and drop points record lifecycle events against the wire trace
// context, and senders forward the context hop-bumped. Safe to call
// while serving; nil detaches.
func (b *Broker) SetProvenance(l *provenance.Log) { b.prov.Store(l) }

// noteTrace remembers a completed frame's trace context for the
// senders, bounded to a recent-frame window.
func (b *Broker) noteTrace(frameID uint32, tc *transport.TraceCtx) {
	if tc == nil {
		return
	}
	b.traceMu.Lock()
	b.traces[frameID] = tc
	if len(b.traces) > 256 {
		for id := range b.traces {
			if id+128 < frameID {
				delete(b.traces, id)
			}
		}
	}
	b.traceMu.Unlock()
}

// traceFor recalls a frame's trace context (nil when untraced).
func (b *Broker) traceFor(frameID uint32) *transport.TraceCtx {
	b.traceMu.Lock()
	defer b.traceMu.Unlock()
	return b.traces[frameID]
}

// IngestImage feeds one marshaled image piece into the broker exactly
// as if it had arrived from a connected renderer, reporting the piece's
// frame ID and whether it completed a frame. It is the relay node's
// input path: frames received from the upstream daemon are re-served to
// this broker's own clients. tc is the piece's wire trace context (nil
// when untraced); the caller is expected to have recorded its own
// received event already.
func (b *Broker) IngestImage(payload []byte, tc *transport.TraceCtx) (frameID uint32, completed bool) {
	return b.ingest(payload, tc)
}

// ingest decodes one renderer image piece; when it completes a frame,
// the frame is offered to every client's pacer (never blocking — a
// full queue drops its oldest frame).
func (b *Broker) ingest(payload []byte, tc *transport.TraceCtx) (uint32, bool) {
	defer b.tracer.Load().Begin("broker", "stream", "ingest")()
	im, err := transport.UnmarshalImage(payload)
	if err != nil {
		b.log.Warnf("bad image: %v", err)
		return 0, false
	}
	b.stats.PiecesIn.Add(1)
	fr, err := b.asm.Ingest(im)
	if err != nil {
		b.log.Warnf("decode frame %d: %v", im.FrameID, err)
		return im.FrameID, false
	}
	if fr == nil {
		return im.FrameID, false
	}
	b.stats.FramesIn.Add(1)
	b.noteTrace(fr.ID, tc)
	if tc != nil {
		b.prov.Load().Record(provenance.Event{
			Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
			Event: provenance.EvDecoded,
		})
	}
	sf := &SourceFrame{ID: fr.ID, Image: fr.Image}
	if b.framesAcct != nil {
		// Charge the decoded frame once; the creator reference below
		// keeps the charge alive until fan-out completes, then each
		// queued reference keeps it until consumed or dropped.
		sf.acct = b.framesAcct
		sf.refs.Store(1)
		b.framesAcct.Add(sf.Size())
	}
	for _, p := range b.srv.Peers(transport.RoleDisplay) {
		sf.retain()
		accepted, dropped := p.State.pacer.Offer(sf)
		if !accepted {
			sf.release()
		}
		for _, d := range dropped {
			b.stats.Drops.Add(1)
			if dtc := b.traceFor(d.ID); dtc != nil {
				b.prov.Load().Record(provenance.Event{
					Trace: dtc.TraceID, Frame: dtc.FrameID, Hop: int(dtc.Hop),
					Event: provenance.EvDropped, Cause: "pacer-full",
				})
			}
			d.release()
		}
	}
	sf.release()
	return fr.ID, true
}

// onAck matches the display's receive report to the broker's send
// timestamp and feeds the round trip to the client's estimator.
func (b *Broker) onAck(c *client, ack *transport.AckMsg) {
	c.sentMu.Lock()
	t0, ok := c.sent[ack.FrameID]
	if ok {
		delete(c.sent, ack.FrameID)
	}
	c.sentMu.Unlock()
	if !ok {
		return
	}
	c.est.ObserveRTT(time.Since(t0))
}

// routeToRenderers relays a user-control message to every renderer and
// to the control-forward sink (the relay node's upstream path).
func (b *Broker) routeToRenderers(m transport.Message) {
	if fn := b.ctrlForward.Load(); fn != nil {
		(*fn)(m)
		b.stats.ControlsRouted.Add(1)
	}
	for _, r := range b.srv.Peers(transport.RoleRenderer) {
		if r.Send(m) == nil {
			b.stats.ControlsRouted.Add(1)
		}
	}
}

// sender is the per-client delivery loop: newest paced frame → pick
// operating point → encode-once-per-point via the cache → timed write
// feeding the bandwidth estimator.
func (b *Broker) sender(c *client) {
	track := fmt.Sprintf("client %d", c.peer.ID)
	// On exit (write error or broker close) drain the pacer so every
	// queued frame's budget charge is refunded: the read loop's defer
	// closes the pacer once the conn errors, which unblocks Next here.
	defer func() {
		for {
			sf, ok := c.pacer.Next()
			if !ok {
				return
			}
			sf.release()
		}
	}()
	for {
		// The tracer is re-loaded each frame so SetTracer can attach
		// or detach while the session runs.
		tr := b.tracer.Load()
		endWait := tr.Begin(track, "stream", "wait")
		sf, ok := c.pacer.Next()
		endWait()
		if !ok {
			return
		}
		if b.gov != nil {
			// The governor's quality-step degradation: under pressure
			// every client is floored at or below a ladder midpoint.
			c.ctrl.SetFloor(b.gov.QualityFloor(c.ctrl.LadderLen()))
		}
		point := c.ctrl.Pick()
		if c.est.Samples() == 0 && c.peer.Kind == transport.KindViewer {
			// Cold start: no bandwidth evidence yet, and this could be a
			// 45 KB/s transoceanic path. Ship the cheapest rung (the
			// progressive preview on the default ladder) as a probe —
			// the viewer gets a usable frame in well under a second on
			// any calibrated link, and the send seeds the estimator so
			// the next pick is informed.
			point = c.ctrl.ProbePoint()
		}
		if b.cfg.FixedPoint != nil {
			point = *b.cfg.FixedPoint
		}
		if c.lastPointSet && point != c.lastPoint {
			b.notePointChange(c, c.lastPoint, sf.ID)
		}
		c.lastPoint, c.lastPointSet = point, true
		encode := func() ([]byte, error) {
			codec, err := point.FrameCodec()
			if err != nil {
				return nil, err
			}
			b.stats.Encodes.Add(1)
			return codec.EncodeFrame(sf.Image)
		}
		var data []byte
		var err error
		encStart := time.Now()
		endEncode := tr.Begin(track, "stream", "encode", "frame", sf.ID, "point", point.String())
		if b.cfg.DisableCache {
			data, err = encode()
		} else {
			data, err = b.cache.GetOrEncode(sf.ID, point, encode)
		}
		endEncode()
		b.encodeH.Load().ObserveDuration(time.Since(encStart))
		// The decoded pixels are not needed past the encode; release the
		// queued reference now so the frames-in-flight charge refunds
		// even when the write below stalls on a slow client.
		sf.release()
		if err != nil {
			b.log.Warnf("encode frame %d at %s: %v", sf.ID, point, err)
			continue
		}
		tc := b.traceFor(sf.ID)
		if tc != nil {
			b.prov.Load().Record(provenance.Event{
				Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
				Event: provenance.EvCompressed, Bytes: len(data), Cause: point.String(),
			})
		}
		c.ctrl.ObserveSize(point, len(data))
		c.frameBytes.Store(int64(len(data)))
		// A full progressive frame goes out in two writes — the
		// standalone preview pass, then the refinement tail — so the
		// viewer paints a usable image from the first bytes and
		// refines in place. Relays keep the single-message form:
		// their dedup window marks a frame ID done once received,
		// and they re-encode per downstream link anyway.
		chunks := [...][]byte{data, nil}
		nchunks := 1
		if point.Codec == "prog" && point.Passes == 0 && c.peer.Kind != transport.KindRelay {
			if head, tail, ok := prog.SplitPreview(data); ok {
				chunks[0], chunks[1] = head, tail
				nchunks = 2
			}
		}
		c.sentMu.Lock()
		c.sent[sf.ID] = time.Now()
		// Bound the in-flight map: unacked frames older than the
		// window just stop contributing RTT samples.
		if len(c.sent) > 64 {
			for id := range c.sent {
				if id+64 < sf.ID {
					delete(c.sent, id)
				}
			}
		}
		c.sentMu.Unlock()
		totalSent := 0
		var sendTime time.Duration
		marshalFailed := false
		for ci := 0; ci < nchunks; ci++ {
			im := &transport.ImageMsg{
				FrameID:    sf.ID,
				PieceCount: 1,
				X1:         uint16(sf.Image.W), Y1: uint16(sf.Image.H),
				W: uint16(sf.Image.W), H: uint16(sf.Image.H),
				Codec: point.Family(),
				Data:  chunks[ci],
			}
			// Reuse the sender's scratch: Send below completes
			// before the next chunk rewrites it.
			payload, err := im.AppendTo(c.marshalBuf[:0])
			if err != nil {
				b.log.Warnf("marshal frame %d: %v", sf.ID, err)
				marshalFailed = true
				break
			}
			c.marshalBuf = payload
			out := transport.Message{Type: transport.MsgImage, Payload: payload}
			if tc != nil {
				// Forward the trace at the next hop ordinal.
				fwd := *tc
				fwd.Hop++
				out.Trace = &fwd
			}
			t0 := time.Now()
			endSend := tr.Begin(track, "stream", "send", "frame", sf.ID, "bytes", len(payload))
			err = c.peer.Send(out)
			endSend()
			if err != nil {
				c.peer.Close()
				return
			}
			sendTime += time.Since(t0)
			totalSent += len(payload)
		}
		if marshalFailed {
			continue
		}
		if tc != nil {
			b.prov.Load().Record(provenance.Event{
				Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
				Event: provenance.EvSent, Bytes: totalSent, Link: c.peer.Remote,
			})
		}
		b.sendH.Load().ObserveDuration(sendTime)
		now := time.Now().UnixNano()
		if prev := b.lastOut.Swap(now); prev != 0 {
			b.ifdH.Load().ObserveDuration(time.Duration(now - prev))
		}
		c.est.Observe(totalSent, sendTime)
		c.framesSent.Add(1)
		c.bytesSent.Add(int64(totalSent))
		b.stats.FramesOut.Add(1)
		b.stats.BytesOut.Add(int64(totalSent))
	}
}

// notePointChange runs when a client's ladder steps away from old
// (usually a step-down under link pressure) while frame frameID is
// still being fanned out. If no other client still operates at old,
// its entry for the current frame is stale — nobody will request it
// again — so it is invalidated rather than left squatting in the
// bounded frame window until frame-age eviction.
func (b *Broker) notePointChange(c *client, old Point, frameID uint32) {
	for _, o := range b.srv.Peers(transport.RoleDisplay) {
		if o.State != c && o.State.ctrl.Current() == old {
			return
		}
	}
	b.cache.Invalidate(frameID, old)
}

// ClientSnapshots returns a stable view of every connected session,
// ordered by session ID.
func (b *Broker) ClientSnapshots() []ClientSnapshot {
	peers := b.srv.Peers(transport.RoleDisplay)
	out := make([]ClientSnapshot, 0, len(peers))
	for _, p := range peers {
		out = append(out, p.State.snapshot())
	}
	return out
}

func (c *client) snapshot() ClientSnapshot {
	return ClientSnapshot{
		ID:         c.peer.ID,
		Remote:     c.peer.Remote,
		Point:      c.ctrl.Current(),
		Bandwidth:  c.est.Bandwidth(),
		RTT:        c.est.RTT(),
		FramesSent: c.framesSent.Load(),
		BytesSent:  c.bytesSent.Load(),
		Drops:      c.pacer.Drops(),
		QueueLen:   c.pacer.Len(),
	}
}
