package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/obs/provenance"
	"repro/internal/pipeline"
	"repro/internal/render"
	"repro/internal/stream"
	"repro/internal/volio"
)

// counters is a snapshot of every cumulative count the layers expose,
// taken at both ends of the measured window.
type counters struct {
	at      time.Time
	traceAt time.Duration // the pipeline tracer's clock
	cpu     time.Duration // process user+system time
	checks  time.Duration // CPU time of the correctness checks, part of cpu

	srvFrames, srvBytes, srvEncodeNS int64
	daemonFwd, daemonDrop            int64
	// edge is the viewer-facing broker.
	edgeIn, edgeEncodes, edgeDrops, edgeHits, edgeMisses int64
	rootIn, allEncodes, relayDup                         int64
	linkBytes                                            int64
}

func (st *stack) snapshot() counters {
	c := counters{at: time.Now(), traceAt: st.tracer.Now(), cpu: processCPU(), linkBytes: st.linkBytes.Load()}
	for _, v := range st.viewers {
		c.checks += time.Duration(v.checkCPU.Load())
	}
	ss := st.srv.Stats()
	c.srvFrames, c.srvBytes, c.srvEncodeNS = ss.FramesSent.Load(), ss.BytesSent.Load(), ss.EncodeNS.Load()
	if d := st.daemon; d != nil {
		c.daemonFwd, c.daemonDrop = d.Stats().ImagesForwarded.Load(), d.Stats().ImagesDropped.Load()
	}
	if e := st.edge; e != nil {
		es, cs := e.Stats(), e.Cache().Stats()
		c.edgeIn, c.edgeEncodes, c.edgeDrops = es.FramesIn.Load(), es.Encodes.Load(), es.Drops.Load()
		c.edgeHits, c.edgeMisses = cs.Hits.Load(), cs.Misses.Load()
		c.rootIn = st.root.Stats().FramesIn.Load()
	}
	if t := st.tree; t != nil {
		for _, n := range t.TierEncodes() {
			c.allEncodes += n
		}
		c.relayDup = st.node.Stats().DupDropped.Load()
	}
	return c
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU is the calling thread's CPU time. Unlike the thread's
// rusage, which lags by up to a scheduler tick, the clock is read
// fresh, so it can time a call of a few microseconds.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// measurement is what one measured window produced.
type measurement struct {
	st      *stack
	viewers []*viewerRec // the viewers measured
	// marks are snapshots at the ends of the window's windowParts
	// equal parts; w0 and w1 are the first and the last.
	marks    []counters
	w0, w1   counters
	secs     float64
	rungs    []float64 // sampled ladder index of each viewer session
	bwRatios []float64 // sampled bandwidth estimate ÷ link bandwidth

	// Whole-run accounting, after the serving path drained.
	delivered, lost, failedChecks int
	failures                      []string

	serialStep time.Duration // serial pipeline time per step (0 = not run)
}

// windowParts is how many equal parts the window is cut into: fps and
// cpu_ms_per_frame are medians over the parts, so that a burst of load
// from outside the benchmark moves one part, not the figure.
const windowParts = 5

// measure lets the workload warm up, measures one window, stops the
// render server, lets the serving path drain and tears the stack down.
func (st *stack) measure(window time.Duration, serial bool) (*measurement, error) {
	defer st.close()
	time.Sleep(st.w.warmup)
	m := &measurement{st: st, viewers: st.viewers, w0: st.snapshot()}
	m.marks = append(m.marks, m.w0)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for p := 0; p < windowParts; p++ {
		end := time.After(window / windowParts)
	part:
		for {
			select {
			case <-tick.C:
				m.sample()
			case <-end:
				break part
			}
		}
		m.marks = append(m.marks, st.snapshot())
	}
	m.w1 = m.marks[windowParts]
	m.secs = m.w1.at.Sub(m.w0.at).Seconds()
	if err := st.stopServer(); err != nil {
		return nil, fmt.Errorf("render server: %w", err)
	}
	m.account()
	if serial {
		d, err := serialStepTime(st)
		if err != nil {
			return nil, err
		}
		m.serialStep = d
	}
	return m, nil
}

// sample records each viewer session's ladder rung and bandwidth
// estimate.
func (m *measurement) sample() {
	if m.st.edge == nil {
		return
	}
	ladder := stream.DefaultLadder()
	for _, c := range m.st.edge.ClientSnapshots() {
		rung := -1
		for i, p := range ladder {
			if p == c.Point {
				rung = i
			}
		}
		m.rungs = append(m.rungs, float64(rung))
		if bw := m.st.w.link.Bandwidth; bw > 0 && c.Bandwidth > 0 {
			m.bwRatios = append(m.bwRatios, c.Bandwidth/bw)
		}
	}
}

// account waits for every frame the serving path finished sending to
// reach its viewer, then counts deliveries, frames lost in transit or
// assembly, and failures of the correctness gate. Frames the daemon's
// buffer or a broker pacer dropped on purpose are layer figures, not
// losses.
func (m *measurement) account() {
	st := m.st
	received := func() int {
		n := 0
		for _, v := range m.viewers {
			n += v.received()
		}
		return n
	}
	var sent int
	if d := st.daemon; d != nil {
		// The daemon keeps forwarding its buffer after the renderer
		// leaves; forwarded minus evicted is what its writers send.
		time.Sleep(50 * time.Millisecond)
		fwd, drop := d.Stats().ImagesForwarded.Load()-st.daemonBase[0], d.Stats().ImagesDropped.Load()-st.daemonBase[1]
		sent = int(fwd - drop)
	} else {
		// FramesSent counts writes the broker completed; frames still
		// queued in a pacer are not yet sent.
		for _, c := range st.edge.ClientSnapshots() {
			sent += int(c.FramesSent)
		}
	}
	_ = waitFor(5*time.Second, func() bool { return received() >= sent })
	if st.tree != nil {
		// The root→relay hop: every frame the root sent the relay
		// must reach the relay's broker.
		rootSent := 0
		for _, c := range st.root.ClientSnapshots() {
			rootSent += int(c.FramesSent)
		}
		ns := st.node.Stats()
		in := func() int { return int(ns.FramesIn.Load() + ns.DupDropped.Load()) }
		_ = waitFor(5*time.Second, func() bool { return in() >= rootSent })
		if got := in(); got < rootSent {
			m.lose(rootSent-got, "the relay received %d of the %d frames the root sent it", got, rootSent)
		}
	}
	m.delivered = received()
	if m.delivered < sent {
		m.lose(sent-m.delivered, "viewers received %d of the %d frames sent to them", m.delivered, sent)
	}
	seen := make([]bool, st.w.steps)
	for i, v := range m.viewers {
		if err := v.v.Err(); err != nil {
			m.fail("viewer %d: %v", i, err)
		}
		v.mu.Lock()
		for _, f := range v.failures {
			m.fail("viewer %d: %s", i, f)
		}
		for _, f := range v.order {
			if f.step >= 0 {
				seen[f.step] = true
			}
		}
		v.mu.Unlock()
	}
	if st.w.lossless {
		for s, ok := range seen {
			if !ok {
				m.fail("step %d was never delivered", s)
			}
		}
	}
}

// fail records one failure of the correctness gate.
func (m *measurement) fail(format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
	m.failedChecks++
}

// lose records n frames lost in transit or assembly.
func (m *measurement) lose(n int, format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
	m.lost += n
}

// attempted counts frames delivered plus frames lost; failed counts
// frames lost plus every other failure of the correctness gate (a
// frame failing its check, a step never delivered, a viewer error).
func (m *measurement) attempted() int { return m.delivered + m.lost }

func (m *measurement) failed() int { return m.lost + m.failedChecks }

// windowFrames returns, per viewer, the frames first delivered inside
// the measured window, in delivery order.
func (m *measurement) windowFrames() [][]*frameRec {
	out := make([][]*frameRec, len(m.viewers))
	for i, v := range m.viewers {
		v.mu.Lock()
		for _, f := range v.order {
			if !f.first.Before(m.w0.at) && f.first.Before(m.w1.at) {
				out[i] = append(out[i], f)
			}
		}
		v.mu.Unlock()
	}
	return out
}

// windowDeliveries returns every delivery inside the window.
func (m *measurement) windowDeliveries() []delivery {
	var out []delivery
	for _, v := range m.viewers {
		v.mu.Lock()
		for _, d := range v.deliveries {
			if !d.at.Before(m.w0.at) && d.at.Before(m.w1.at) {
				out = append(out, d)
			}
		}
		v.mu.Unlock()
	}
	return out
}

// endToEnd is what a user of the system sees over the window.
type endToEnd struct {
	fps                  float64   // median over the window's parts
	partFPS              []float64 // per part, mean over viewers
	latencies            []float64 // ms, fetch → final delivery
	interframes          []float64 // ms between first deliveries
	psnr                 float64
	cpuMSPerFrame        float64 // median over the window's parts, checks left out
	checkMSPerFrame      float64 // the correctness checks' CPU over the window
	framesPerViewer      []int
	codecs               map[string]int // final frames by the codec they arrived in
	samplesPerViewer     []int
	deliveredFramesTotal int
}

func (m *measurement) endToEnd() endToEnd {
	e := endToEnd{codecs: map[string]int{}}
	var psnrSum float64
	partFrames := make([]int, windowParts)
	for _, frames := range m.windowFrames() {
		e.framesPerViewer = append(e.framesPerViewer, len(frames))
		e.deliveredFramesTotal += len(frames)
		samples := 0
		for i, f := range frames {
			p := 0
			for p < windowParts-1 && !f.first.Before(m.marks[p+1].at) {
				p++
			}
			partFrames[p]++
			if !f.fetch.IsZero() {
				e.latencies = append(e.latencies, ms(f.last.Sub(f.fetch)))
				samples++
			}
			if i > 0 {
				e.interframes = append(e.interframes, ms(f.first.Sub(frames[i-1].first)))
			}
			psnrSum += f.psnr
			e.codecs[f.codec]++
		}
		e.samplesPerViewer = append(e.samplesPerViewer, samples)
	}
	var partCPU []float64
	for p, n := range partFrames {
		a, b := m.marks[p], m.marks[p+1]
		e.partFPS = append(e.partFPS, float64(n)/b.at.Sub(a.at).Seconds()/float64(len(m.viewers)))
		if n > 0 {
			partCPU = append(partCPU, ms((b.cpu-b.checks)-(a.cpu-a.checks))/float64(n))
		}
	}
	e.fps = median(e.partFPS)
	e.cpuMSPerFrame = median(partCPU)
	if e.deliveredFramesTotal > 0 {
		e.psnr = psnrSum / float64(e.deliveredFramesTotal)
		e.checkMSPerFrame = ms(m.w1.checks-m.w0.checks) / float64(e.deliveredFramesTotal)
	}
	return e
}

// serialStepTime renders the dataset's steps through pipeline.Run at
// P=1, L=1 with one render worker and no network: the single-threaded
// baseline the served frame rate is compared against.
func serialStepTime(st *stack) (time.Duration, error) {
	ro := render.DefaultOptions()
	ro.Workers = 1
	t0 := time.Now()
	_, err := pipeline.Run(volio.FileStore{R: st.reader}, pipeline.Options{
		P: 1, L: 1,
		ImageW: st.w.size, ImageH: st.w.size,
		TF:       st.tf,
		CameraFn: st.camera,
		Render:   ro,
	}, nil)
	if err != nil {
		return 0, fmt.Errorf("serial baseline: %w", err)
	}
	return time.Since(t0) / time.Duration(st.w.steps), nil
}

// spanStats groups a traced run's spans inside the window by stage.
type spanStats map[string][]float64 // stage → self time in ms per span

// stageSpans collects total and self time per stage from the traced
// window. Stages are named layer.span. A pipeline deliver span
// contains the server's ship span for the same step (the pipeline's
// sink is the server's encode-and-send), so the deliver self time
// excludes it; every other stage has no child span.
func (m *measurement) stageSpans() (total, self spanStats) {
	st := m.st
	total, self = spanStats{}, spanStats{}
	in := func(s obs.Span) bool { return s.Start >= m.w0.traceAt && s.Start < m.w1.traceAt }
	spans := st.tracer.Spans()
	var ships []obs.Span
	for _, s := range spans {
		if s.Name == "ship" && in(s) {
			ships = append(ships, s)
		}
	}
	for _, s := range spans {
		if !in(s) {
			continue
		}
		name := s.Cat + "." + s.Name
		d := s.End - s.Start
		total[name] = append(total[name], ms(d))
		if s.Name == "deliver" {
			for _, c := range ships {
				if c.Args["step"] == s.Args["step"] {
					d -= overlap(s, c)
				}
			}
		}
		self[name] = append(self[name], ms(d))
	}
	// Broker tracers run on their own clocks: window them by the
	// pipeline tracer's window length ending at their own now.
	for prefix, t := range map[string]*obs.Tracer{"stream": st.edgeTracer, "root.stream": st.rootTracer} {
		if t == nil {
			continue
		}
		hi := t.Now() - time.Since(m.w1.at)
		lo := hi - m.w1.at.Sub(m.w0.at)
		for _, s := range t.Spans() {
			if s.Start < lo || s.Start >= hi {
				continue
			}
			name := prefix + "." + s.Name
			total[name] = append(total[name], ms(s.End-s.Start))
			self[name] = append(self[name], ms(s.End-s.Start))
		}
	}
	return total, self
}

func overlap(a, b obs.Span) time.Duration {
	lo, hi := a.Start, a.End
	if b.Start > lo {
		lo = b.Start
	}
	if b.End < hi {
		hi = b.End
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// relayHops returns, per frame traced through the relay tier inside
// the window, the time from the root broker finishing its encode for
// the relay to the relay reading the frame off the wire (ms).
func (m *measurement) relayHops() []float64 {
	root, edge := m.st.provs["root"], m.st.provs["edge"]
	if root == nil || edge == nil {
		return nil
	}
	type key struct {
		trace uint64
		frame uint32
	}
	ready := map[key]int64{}
	for _, ev := range root.Snapshot() {
		if ev.Event == provenance.EvCompressed {
			ready[key{ev.Trace, ev.Frame}] = ev.UnixNano
		}
	}
	var out []float64
	lo, hi := m.w0.at.UnixNano(), m.w1.at.UnixNano()
	for _, ev := range edge.Snapshot() {
		if ev.Event != provenance.EvReceived || ev.UnixNano < lo || ev.UnixNano >= hi {
			continue
		}
		if t, ok := ready[key{ev.Trace, ev.Frame}]; ok {
			out = append(out, math.Max(0, float64(ev.UnixNano-t)/1e6))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (NaN when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or -1 when b is zero (nothing to divide by).
func ratio(a, b float64) float64 {
	if b == 0 {
		return -1
	}
	return a / b
}
