package main

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/display"
	"repro/internal/vol"
	"repro/internal/volio"
	"repro/internal/wan"
)

// The probes below time the layers from outside: each wraps a public
// boundary (the volio.Store the server reads, a net.Conn a layer
// writes to, the channel a viewer delivers on) and records what
// crosses it. None of them changes what passes through.

// fetchRec is one Store.Fetch call.
type fetchRec struct {
	step  int
	start time.Time
	dur   time.Duration
	bytes int64
}

// timedStore is the store the render server reads: it stamps every
// Fetch so a delivered frame can be traced back to the read of its
// time step.
type timedStore struct {
	volio.Store

	mu      sync.Mutex
	fetches []fetchRec
}

func (s *timedStore) Fetch(t int) (*vol.Volume, error) {
	start := time.Now()
	v, err := s.Store.Fetch(t)
	if err != nil {
		return nil, err
	}
	rec := fetchRec{step: t, start: start, dur: time.Since(start), bytes: int64(len(v.Data)) * 4}
	s.mu.Lock()
	s.fetches = append(s.fetches, rec)
	s.mu.Unlock()
	return v, nil
}

// nth returns the k-th Fetch (0-based). With one pipeline group the
// server's frame k is the k-th step it read.
func (s *timedStore) nth(k int) (fetchRec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k < 0 || k >= len(s.fetches) {
		return fetchRec{}, false
	}
	return s.fetches[k], true
}

// lastBefore returns the latest Fetch of step that started before t:
// the read of the pass a frame of that step was rendered in.
func (s *timedStore) lastBefore(step int, t time.Time) (fetchRec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.fetches) - 1; i >= 0; i-- {
		if f := s.fetches[i]; f.step == step && f.start.Before(t) {
			return f, true
		}
	}
	return fetchRec{}, false
}

// between returns the fetches that started in [a, b).
func (s *timedStore) between(a, b time.Time) []fetchRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []fetchRec
	for _, f := range s.fetches {
		if !f.start.Before(a) && f.start.Before(b) {
			out = append(out, f)
		}
	}
	return out
}

// countConn counts the bytes a layer writes to a connection.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// linkListener hands out accepted connections wrapped as the sending
// end of a viewer link: shaped to the link profile on top of a byte
// counter, so the counter sees bytes as the shaped link releases them.
type linkListener struct {
	net.Listener
	prof  wan.Profile
	bytes *atomic.Int64
}

func (l linkListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return wan.Shape(countConn{Conn: c, n: l.bytes}, l.prof), nil
}

// frameRec is one frame ID as one viewer saw it.
type frameRec struct {
	step int
	// first is the first delivery (a progressive preview counts),
	// last the final one; fetch is the start of the read of the
	// frame's time step in its pass.
	first, last, fetch time.Time
	// psnr is the last delivery's PSNR against the step's reference
	// frame, capped for identical frames; codec is the last delivery's.
	psnr  float64
	codec string
}

// delivery is one frame handed out on Viewer.Frames.
type delivery struct {
	at               time.Time
	decode, assemble time.Duration
	refinement       bool
}

// checkFunc validates a delivered frame and identifies it: the step
// it shows, when that step was read, and its PSNR.
type checkFunc func(f *display.Frame, at time.Time) (step int, fetch time.Time, psnr float64, err error)

// viewerRec drains one viewer and records every delivery.
type viewerRec struct {
	v    *display.Viewer
	done chan struct{}
	// checkCPU is the CPU time the correctness checks took on the
	// drain goroutine (ns); the process CPU figures leave it out.
	checkCPU atomic.Int64

	mu         sync.Mutex
	frames     map[uint32]*frameRec
	order      []*frameRec // by first delivery
	deliveries []delivery
	failures   []string
}

func newViewerRec(v *display.Viewer, check checkFunc) *viewerRec {
	r := &viewerRec{v: v, done: make(chan struct{}), frames: map[uint32]*frameRec{}}
	go func() {
		defer close(r.done)
		for f := range v.Frames() {
			r.record(f, time.Now(), check)
		}
	}()
	return r
}

func (r *viewerRec) record(f *display.Frame, at time.Time, check checkFunc) {
	// Pinned to its thread, the check's CPU time is the thread's.
	runtime.LockOSThread()
	c0 := threadCPU()
	step, fetch, psnr, err := check(f, at)
	r.checkCPU.Add(int64(threadCPU() - c0))
	runtime.UnlockOSThread()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deliveries = append(r.deliveries, delivery{
		at: at, decode: f.DecodeTime, assemble: f.AssembleTime,
		refinement: f.Refinement,
	})
	if err != nil {
		r.failures = append(r.failures, err.Error())
	}
	fr, ok := r.frames[f.ID]
	if !ok {
		fr = &frameRec{first: at}
		r.frames[f.ID] = fr
		r.order = append(r.order, fr)
	}
	fr.step, fr.fetch, fr.psnr, fr.last = step, fetch, psnr, at
	fr.codec = f.Codec
}

// received counts distinct frame IDs delivered so far.
func (r *viewerRec) received() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.frames)
}

// firstAt is the time of the first delivery (zero before it).
func (r *viewerRec) firstAt() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.deliveries) == 0 {
		return time.Time{}
	}
	return r.deliveries[0].at
}
