package transport

import (
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/provenance"
)

// Daemon is the display daemon: it accepts any number of renderer and
// display connections, forwards image messages from renderers to every
// display, and routes control messages from displays back to every
// renderer. An image buffer per display absorbs bursts when rendering
// outpaces the wide-area link; when the buffer overflows the oldest
// frame is dropped, favoring interactivity over completeness (the
// paper's display daemon "uses an image buffer to cope with faster
// rendering rates").
//
// The daemon treats the wide-area network as hostile: every frame is
// CRC-checked (corrupt frames are counted and dropped, never
// forwarded), peers are pinged on a heartbeat interval and evicted
// when silent past the dead-peer timeout, and per-peer health is
// observable via Health.
type Daemon struct {
	ln  net.Listener
	srv *Server[outbox]

	mu sync.Mutex
	// closed keeps SetHeartbeat from starting a monitor after Close.
	closed bool

	// bufferFrames is the per-display image buffer depth, read from
	// per-connection goroutines, so it lives behind mu and is set via
	// SetBufferFrames.
	bufferFrames int

	// Heartbeat state: hbInterval is how often peers are pinged;
	// hbTimeout is the silence threshold after which a peer is
	// evicted. hbStop ends the heartbeat goroutine (nil until
	// started).
	hbInterval time.Duration
	hbTimeout  time.Duration
	hbStop     chan struct{}

	// ifd observes the delay between consecutive forwarded frames
	// when the daemon is instrumented (nil otherwise); lastForward is
	// the previous forward time. Both behind mu.
	ifd         *obs.Histogram
	lastForward time.Time

	// prov records per-frame provenance events when set (nil-safe).
	prov atomic.Pointer[provenance.Log]

	log   *obs.Logger
	stats DaemonStats
	// wg tracks the heartbeat and the per-peer writers.
	wg sync.WaitGroup
}

// DaemonStats counts daemon activity.
type DaemonStats struct {
	ImagesForwarded atomic.Int64
	ImagesDropped   atomic.Int64
	ControlsRouted  atomic.Int64
	BytesForwarded  atomic.Int64
	// AcksReceived counts display receive reports (consumed by the
	// adaptive stream broker; the plain daemon just counts them).
	AcksReceived atomic.Int64
	// CorruptDropped counts inbound messages dropped on CRC failure.
	CorruptDropped atomic.Int64
	// PeersEvicted counts peers disconnected by the dead-peer
	// heartbeat monitor.
	PeersEvicted atomic.Int64
	// PingsSent counts heartbeat probes enqueued to peers.
	PingsSent atomic.Int64
}

// outbox is a daemon peer's outbound queue, drained by its writer
// goroutine until done closes.
type outbox struct {
	out  chan Message
	done chan struct{}
}

// PeerHealth is one peer's liveness snapshot, as served under
// /debug/status.
type PeerHealth struct {
	ID     int    `json:"id"`
	Role   string `json:"role"`
	Remote string `json:"remote"`
	// SinceLastSeenMS is the silence time at snapshot; RTTMS the last
	// heartbeat round-trip (0 before the first pong).
	SinceLastSeenMS float64 `json:"since_last_seen_ms"`
	RTTMS           float64 `json:"rtt_ms"`
	// Healthy is false once silence exceeds the dead-peer timeout
	// (always true when heartbeats are off).
	Healthy bool `json:"healthy"`
}

// NewDaemon starts a daemon on the listener. Callers own the
// listener's address; Serve runs until Close.
func NewDaemon(ln net.Listener) *Daemon {
	d := &Daemon{
		ln:           ln,
		bufferFrames: 8,
		log:          obs.NewLogger("daemon"),
	}
	d.srv = NewServer(ln, Handler[outbox]{
		Log:     d.log,
		Corrupt: &d.stats.CorruptDropped,
		Open:    d.open,
		Handle:  d.handle,
		Close:   func(p *Peer[outbox]) { close(p.State.done) },
	})
	return d
}

// Addr returns the daemon's listen address.
func (d *Daemon) Addr() net.Addr { return d.ln.Addr() }

// Stats exposes the daemon counters.
func (d *Daemon) Stats() *DaemonStats { return &d.stats }

// SetBufferFrames sets the per-display image buffer depth (default 8);
// safe to call while serving (applies to new connections).
func (d *Daemon) SetBufferFrames(n int) {
	if n < 1 {
		n = 1
	}
	d.mu.Lock()
	d.bufferFrames = n
	d.mu.Unlock()
}

// SetHeartbeat starts (or reconfigures) the daemon's liveness
// monitor: every interval each peer is pinged, and a peer silent for
// longer than timeout is evicted — closed and counted in
// PeersEvicted. timeout <= 0 defaults to 3x the interval; interval
// <= 0 stops the monitor.
func (d *Daemon) SetHeartbeat(interval, timeout time.Duration) {
	if timeout <= 0 {
		timeout = 3 * interval
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hbInterval, d.hbTimeout = interval, timeout
	if d.hbStop != nil {
		close(d.hbStop)
		d.hbStop = nil
	}
	if interval <= 0 || d.closed {
		return
	}
	stop := make(chan struct{})
	d.hbStop = stop
	d.wg.Add(1)
	go d.heartbeat(interval, timeout, stop)
}

func (d *Daemon) heartbeat(interval, timeout time.Duration, stop chan struct{}) {
	defer d.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		for _, p := range d.srv.Peers(0) {
			if silence := now.Sub(p.LastSeen()); silence > timeout {
				d.stats.PeersEvicted.Add(1)
				d.log.Warnf("%s %d silent for %v, evicting", p.Role, p.ID, silence.Round(time.Millisecond))
				p.Evict()
				continue
			}
			// Best-effort probe: a full outbound queue means the peer
			// link is busy; the pong would be stale anyway.
			select {
			case p.State.out <- Message{Type: MsgPing, Payload: MarshalPing(now.UnixNano())}:
				d.stats.PingsSent.Add(1)
			default:
			}
		}
	}
}

// Health snapshots every peer's liveness state, ordered by peer id.
func (d *Daemon) Health() []PeerHealth {
	d.mu.Lock()
	timeout := d.hbTimeout
	hbOn := d.hbInterval > 0
	d.mu.Unlock()
	now := time.Now()
	var out []PeerHealth
	for _, p := range d.srv.Peers(0) {
		silence := now.Sub(p.LastSeen())
		out = append(out, PeerHealth{
			ID:              p.ID,
			Role:            p.Role.String(),
			Remote:          p.Remote,
			SinceLastSeenMS: float64(silence) / float64(time.Millisecond),
			RTTMS:           float64(p.RTT()) / float64(time.Millisecond),
			Healthy:         !hbOn || silence <= timeout,
		})
	}
	return out
}

// SetProvenance installs a frame-provenance log: traced images are
// recorded as received when read and relayed/dropped as they are
// forwarded. Safe to call while serving; nil disables.
func (d *Daemon) SetProvenance(l *provenance.Log) { d.prov.Store(l) }

// SetLogf installs a diagnostics sink (nil silences); safe to call
// while serving. It is a compatibility shim over the daemon's leveled
// obs.Logger — see Logger for level control.
func (d *Daemon) SetLogf(f func(format string, args ...any)) {
	d.log.SetFunc(f)
}

// Logger exposes the daemon's component logger.
func (d *Daemon) Logger() *obs.Logger { return d.log }

// Instrument registers the daemon's counters on a metrics registry
// and starts observing the delay between consecutive forwarded frames
// into a daemon_interframe_delay_seconds histogram. Safe to call while
// serving.
func (d *Daemon) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := &d.stats
	reg.CounterFunc("daemon_images_forwarded_total",
		"Image messages forwarded from renderers to displays.", st.ImagesForwarded.Load)
	reg.CounterFunc("daemon_images_dropped_total",
		"Image messages dropped by full per-display buffers.", st.ImagesDropped.Load)
	reg.CounterFunc("daemon_bytes_forwarded_total",
		"Image payload bytes forwarded to displays.", st.BytesForwarded.Load)
	reg.CounterFunc("daemon_controls_routed_total",
		"User-control messages routed back to renderers.", st.ControlsRouted.Load)
	reg.CounterFunc("daemon_acks_received_total",
		"Display receive reports counted.", st.AcksReceived.Load)
	reg.CounterFunc("daemon_corrupt_dropped_total",
		"Inbound messages dropped on wire CRC failure.", st.CorruptDropped.Load)
	reg.CounterFunc("daemon_peers_evicted_total",
		"Peers evicted by the dead-peer heartbeat monitor.", st.PeersEvicted.Load)
	reg.CounterFunc("daemon_pings_sent_total",
		"Heartbeat probes enqueued to peers.", st.PingsSent.Load)
	reg.GaugeFunc("daemon_displays", "Connected display clients.", func() float64 {
		return float64(d.srv.Count(RoleDisplay))
	})
	reg.GaugeFunc("daemon_renderers", "Connected renderer peers.", func() float64 {
		return float64(d.srv.Count(RoleRenderer))
	})
	ifd := reg.Histogram("daemon_interframe_delay_seconds",
		"Delay between consecutive frames forwarded to displays.")
	d.mu.Lock()
	d.ifd = ifd
	d.lastForward = time.Time{}
	d.mu.Unlock()
}

// Serve accepts connections until the listener closes. Run it on its
// own goroutine.
func (d *Daemon) Serve() error { return d.srv.Serve(d.ln) }

// ServeConn runs the handshake and forwarding loop for one
// pre-established connection on a background goroutine. Tests and
// experiments use it to wrap individual accepted connections in
// per-client wan shaping before the daemon writes to them.
func (d *Daemon) ServeConn(conn net.Conn) { d.srv.ServeConn(conn) }

// Close stops accepting, disconnects all peers (including connections
// still mid-handshake) and waits for every handler goroutine.
func (d *Daemon) Close() error {
	d.mu.Lock()
	d.closed = true
	if d.hbStop != nil {
		close(d.hbStop)
		d.hbStop = nil
	}
	d.mu.Unlock()
	err := d.srv.Close()
	d.wg.Wait()
	return err
}

// open gives a new peer its outbound queue and starts the writer that
// drains it.
func (d *Daemon) open(p *Peer[outbox]) outbox {
	d.mu.Lock()
	q := outbox{out: make(chan Message, 4*d.bufferFrames), done: make(chan struct{})}
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			select {
			case m := <-q.out:
				if err := p.Send(m); err != nil {
					p.Close()
					return
				}
			case <-q.done:
				return
			}
		}
	}()
	return q
}

func (d *Daemon) handle(p *Peer[outbox], m Message) {
	switch m.Type {
	case MsgImage:
		if p.Role != RoleRenderer {
			d.log.Warnf("image from display %d ignored", p.ID)
			return
		}
		if tc := m.Trace; tc != nil {
			d.prov.Load().Record(provenance.Event{
				Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
				Event: provenance.EvReceived, Bytes: len(m.Payload), Link: p.Remote,
			})
		}
		d.forwardToDisplays(m)
	case MsgControl:
		if p.Role != RoleDisplay {
			d.log.Warnf("control from renderer %d ignored", p.ID)
			return
		}
		d.routeToRenderers(m)
	case MsgAck:
		// Display receive reports: the plain daemon has no
		// adaptive layer to feed, so it just counts them.
		d.stats.AcksReceived.Add(1)
	case MsgAdvertise:
		// Codec advertisements matter to the stream broker only.
	default:
		d.log.Warnf("unknown message type %d from %s %d", m.Type, p.Role, p.ID)
	}
}

// forwardToDisplays enqueues an image for every display, dropping the
// oldest queued message when a display's buffer is full. A traced
// image is forwarded at the next hop ordinal.
func (d *Daemon) forwardToDisplays(m Message) {
	prov := d.prov.Load()
	if tc := m.Trace; tc != nil {
		fwd := *tc
		fwd.Hop++
		m.Trace = &fwd
		prov.Record(provenance.Event{
			Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
			Event: provenance.EvRelayed, Bytes: len(m.Payload),
		})
	}
	targets := d.srv.Peers(RoleDisplay)
	d.mu.Lock()
	if ifd := d.ifd; ifd != nil {
		now := time.Now()
		if !d.lastForward.IsZero() {
			ifd.ObserveDuration(now.Sub(d.lastForward))
		}
		d.lastForward = now
	}
	d.mu.Unlock()
	for _, p := range targets {
		for {
			select {
			case p.State.out <- m:
				d.stats.ImagesForwarded.Add(1)
				d.stats.BytesForwarded.Add(int64(len(m.Payload)))
			default:
				// Buffer full: drop the oldest and retry.
				select {
				case dropped := <-p.State.out:
					d.stats.ImagesDropped.Add(1)
					if tc := dropped.Trace; tc != nil {
						prov.Record(provenance.Event{
							Trace: tc.TraceID, Frame: tc.FrameID, Hop: int(tc.Hop),
							Event: provenance.EvDropped, Cause: "buffer-full",
						})
					}
				default:
				}
				continue
			}
			break
		}
	}
}

// routeToRenderers passes a control message to every renderer — the
// "remote callback" path.
func (d *Daemon) routeToRenderers(m Message) {
	for _, p := range d.srv.Peers(RoleRenderer) {
		select {
		case p.State.out <- m:
			d.stats.ControlsRouted.Add(1)
		case <-p.State.done:
		}
	}
}

// ListenAndServe starts a daemon on addr (e.g. "127.0.0.1:0") and
// serves on a background goroutine; the returned daemon is ready.
func ListenAndServe(addr string) (*Daemon, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	d := NewDaemon(ln)
	go func() {
		if err := d.Serve(); err != nil {
			log.Printf("transport: daemon serve: %v", err)
		}
	}()
	return d, nil
}
