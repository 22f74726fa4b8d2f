package transport

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Server is the connection core shared by the display daemon and the
// stream broker: the accept loop, the table of live connections, the
// hello/welcome handshake with optional admission control, the read
// loop's protocol cases (CRC failures, pings, pongs, bye) and
// serialized per-peer writes. Its owner supplies everything else
// through a Handler; S is the owner's per-peer state.
type Server[S any] struct {
	h Handler[S]

	mu sync.Mutex
	ln net.Listener
	// conns tracks every connection from accept until its handler
	// exits, so Close can unblock handlers still waiting for a hello.
	conns  map[net.Conn]struct{}
	peers  map[int]*Peer[S]
	nextID int
	closed bool
	wg     sync.WaitGroup
}

// Handler is what a Server's owner supplies: its logger, its
// corrupt-frame counter and the per-peer callbacks. Admit and Open run
// with the peer table locked, so the admission count and the insert are
// atomic and no peer is visible before its state is built; they must
// not call back into the Server.
type Handler[S any] struct {
	Log *obs.Logger
	// Corrupt counts inbound messages dropped on CRC failure.
	Corrupt *atomic.Int64
	// Admit, when set, decides whether a handshaken peer is accepted;
	// n is the number of connected peers with the same role. A refused
	// peer is answered with MsgBusy carrying the retry hint.
	Admit func(role Role, kind byte, n int) (ok bool, retry time.Duration)
	// Open builds an accepted peer's state. It may start goroutines
	// that write to the peer: the welcome is sent before their writes.
	Open func(p *Peer[S]) S
	// Handle receives every message the Server does not handle itself.
	Handle func(p *Peer[S], m Message)
	// Close runs once the peer has left the table, for every peer
	// Open ran for.
	Close func(p *Peer[S])
}

// Peer is one handshaken connection in a Server's table.
type Peer[S any] struct {
	ID     int
	Role   Role
	Kind   byte // KindViewer or KindRelay, from the hello
	Remote string
	// State is the owner's per-peer data, built by Handler.Open.
	State S

	conn net.Conn
	wmu  sync.Mutex

	// lastSeen is the wall-clock nanos of the most recent inbound
	// message; rttNS the last ping round-trip.
	lastSeen atomic.Int64
	rttNS    atomic.Int64
	// evicted marks a peer closed by Evict, for the disconnect log
	// line.
	evicted atomic.Bool
}

// Send writes one message to the peer; concurrent calls are
// serialized.
func (p *Peer[S]) Send(m Message) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return WriteMessage(p.conn, m)
}

// Close closes the peer's connection, which ends its read loop.
func (p *Peer[S]) Close() error { return p.conn.Close() }

// Evict closes a peer judged dead and logs its exit as an eviction.
func (p *Peer[S]) Evict() {
	p.evicted.Store(true)
	p.conn.Close()
}

// LastSeen is when the peer's most recent message arrived.
func (p *Peer[S]) LastSeen() time.Time { return time.Unix(0, p.lastSeen.Load()) }

// RTT is the last ping round-trip (0 before the first pong).
func (p *Peer[S]) RTT() time.Duration { return time.Duration(p.rttNS.Load()) }

// NewServer builds a Server; ln may be nil until Serve.
func NewServer[S any](ln net.Listener, h Handler[S]) *Server[S] {
	return &Server[S]{
		h:     h,
		ln:    ln,
		conns: map[net.Conn]struct{}{},
		peers: map[int]*Peer[S]{},
	}
}

// Addr returns the listen address (nil before a listener is set).
func (s *Server[S]) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Close.
func (s *Server[S]) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.ServeConn(conn)
	}
}

// ServeConn runs the handshake and read loop for one pre-established
// connection on a background goroutine; after Close it closes conn.
func (s *Server[S]) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		defer func() {
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
		s.handle(conn)
	}()
}

// Close stops accepting, closes every connection (including those
// still mid-handshake) and waits for their handlers to finish.
func (s *Server[S]) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// Peers snapshots the connected peers with the given role (0 selects
// every role), ordered by ID.
func (s *Server[S]) Peers(role Role) []*Peer[S] {
	s.mu.Lock()
	out := make([]*Peer[S], 0, len(s.peers))
	for _, p := range s.peers {
		if role == 0 || p.Role == role {
			out = append(out, p)
		}
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b *Peer[S]) int { return a.ID - b.ID })
	return out
}

// Count returns the number of connected peers with the given role.
func (s *Server[S]) Count(role Role) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count(role)
}

func (s *Server[S]) count(role Role) int {
	n := 0
	for _, p := range s.peers {
		if p.Role == role {
			n++
		}
	}
	return n
}

func (s *Server[S]) handle(conn net.Conn) {
	defer conn.Close()
	log := s.h.Log
	hello, err := ReadMessage(conn)
	if err != nil || hello.Type != MsgHello {
		log.Warnf("bad handshake from %v: %v", conn.RemoteAddr(), err)
		return
	}
	role, kind, err := ParseHello(hello.Payload)
	if err != nil {
		log.Warnf("bad hello from %v: %v", conn.RemoteAddr(), err)
		return
	}
	if role != RoleRenderer && role != RoleDisplay {
		log.Warnf("unknown role %d", role)
		return
	}
	p := &Peer[S]{Role: role, Kind: kind, Remote: fmt.Sprint(conn.RemoteAddr()), conn: conn}
	p.lastSeen.Store(time.Now().UnixNano())

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.h.Admit != nil {
		if ok, retry := s.h.Admit(role, kind, s.count(role)); !ok {
			s.mu.Unlock()
			log.Warnf("%s from %v refused by admission control (retry after %v)", role, p.Remote, retry)
			_ = WriteMessage(conn, Message{Type: MsgBusy, Payload: MarshalBusy(retry, "over budget")})
			return
		}
	}
	s.nextID++
	p.ID = s.nextID
	// Hold the write lock until the welcome is out, so it is the first
	// message even when Open's goroutines write straight away.
	p.wmu.Lock()
	p.State = s.h.Open(p)
	s.peers[p.ID] = p
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.peers, p.ID)
		s.mu.Unlock()
		s.h.Close(p)
		if p.evicted.Load() {
			log.Infof("%s %d evicted", role, p.ID)
		} else {
			log.Infof("%s %d disconnected", role, p.ID)
		}
	}()

	// Welcome ack: the peer's Dial blocks until registration is
	// complete, so frames sent right after connecting cannot race past
	// a display that is still registering.
	err = WriteMessage(conn, Message{Type: MsgHello, Payload: HelloPayload(role, KindViewer)})
	p.wmu.Unlock()
	if err != nil {
		return
	}
	log.Infof("%s %d connected from %v", role, p.ID, p.Remote)

	for {
		m, err := ReadMessage(conn)
		if err != nil {
			if errors.Is(err, ErrChecksum) {
				// The stream is still frame-aligned: drop the corrupt
				// message so it is never forwarded, and keep serving.
				s.h.Corrupt.Add(1)
				log.Warnf("corrupt message from %s %d dropped", role, p.ID)
				continue
			}
			log.Infof("read from %s %d: %v", role, p.ID, err)
			return
		}
		p.lastSeen.Store(time.Now().UnixNano())
		switch m.Type {
		case MsgPing:
			// Answer the peer's liveness probe, echoing its payload.
			_ = p.Send(Message{Type: MsgPong, Payload: m.Payload})
		case MsgPong:
			if sent, err := UnmarshalPing(m.Payload); err == nil {
				p.rttNS.Store(time.Now().UnixNano() - sent)
			}
		case MsgBye:
			return
		default:
			s.h.Handle(p, m)
		}
	}
}
