package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/display"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/obs/provenance"
	"repro/internal/pipeline"
	"repro/internal/relay"
	"repro/internal/render"
	"repro/internal/stream"
	"repro/internal/tf"
	"repro/internal/transport"
	"repro/internal/vol"
	"repro/internal/volio"
)

// psnrCap is the PSNR a frame identical to its reference counts as.
const psnrCap = 100.0

// stack is one brought-up instance of a workload: the dataset file,
// its reference frames, the serving path, the render server and the
// connected viewers, all in this process on loopback TCP.
type stack struct {
	w  workload
	in inputs
	tf *tf.TF

	path   string
	reader *volio.Reader
	store  *timedStore
	// refs[s] is step s rendered by pipeline.Run at the workload's own
	// P and L; refIdx indexes them by pixel checksum (lossless only).
	refs   []*img.Frame
	refIdx map[uint32][]int

	lnR, lnV   net.Listener
	linkBytes  atomic.Int64 // bytes written on the viewer links
	daemon     *transport.Daemon
	root       *stream.Broker // the broker the render server feeds
	node       *relay.Node
	tree       *relay.Tree
	edge       *stream.Broker // the broker the viewers attach to
	serveDone  sync.WaitGroup
	viewerAddr string

	srv     *core.Server
	runAt   time.Time
	runErr  chan error
	viewers []*viewerRec
	// daemonBase is the daemon's forwarded and dropped counts when the
	// current server started; earlier connections' frames are not
	// this run's.
	daemonBase [2]int64

	// Traced runs only: pipeline and server stage spans, the
	// viewer-facing broker's spans (and the root's, with a relay
	// tier), and provenance logs by node name.
	tracer, edgeTracer, rootTracer *obs.Tracer
	provs                          map[string]*provenance.Log

	// phases times bringUp's parts: "dataset" (write and open the
	// file), "references" and "serve" (the serving path).
	phases map[string]time.Duration

	closeOnce sync.Once
}

// bringUp writes the dataset, renders the reference frames and starts
// the serving path; connect attaches a render server and viewers.
func bringUp(w workload, in inputs, dir string, traced bool) (st *stack, err error) {
	tfn, err := tf.Preset(w.dataset)
	if err != nil {
		return nil, err
	}
	st = &stack{w: w, in: in, tf: tfn, runErr: make(chan error, 1), phases: map[string]time.Duration{}}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st.path = filepath.Join(dir, w.name+".tvv")
	g, err := datagen.ByName(w.dataset, w.scale, 0)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := volio.WriteDataset(st.path, window{Generator: g, first: in.first, n: w.steps}); err != nil {
		return nil, fmt.Errorf("writing dataset: %w", err)
	}
	if st.reader, err = volio.Open(st.path); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := st.renderReferences(); err != nil {
		return nil, err
	}
	t2 := time.Now()
	if traced {
		st.tracer = obs.NewTracer(nil, 0)
		st.provs = map[string]*provenance.Log{}
	}
	if err := st.startServing(); err != nil {
		return nil, err
	}
	st.phases["dataset"], st.phases["references"], st.phases["serve"] = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return st, nil
}

// connect starts a fresh render server and fresh viewer connections
// on the serving path. The server is connected but not yet running.
func (st *stack) connect() error {
	w := st.w
	st.store = &timedStore{Store: volio.FileStore{R: st.reader}}
	srv, err := core.NewServer(st.store, core.ServerOptions{
		DaemonAddr: st.lnR.Addr().String(),
		P:          w.p, L: w.l,
		ImageW: w.size, ImageH: w.size,
		Codec: w.codec,
		TF:    st.tf,
		View:  st.in.view,
		Loop:  true,
		Trace: st.tracer,
		Prov:  st.prov("server"),
	})
	if err != nil {
		return fmt.Errorf("starting render server: %w", err)
	}
	st.srv = srv
	for i := 0; i < w.viewers; i++ {
		ep, err := transport.Dial(st.viewerAddr, transport.RoleDisplay, nil)
		if err != nil {
			return fmt.Errorf("connecting viewer %d: %w", i, err)
		}
		v := display.NewViewer(ep)
		if st.provs != nil {
			v.SetProvenance(st.prov(fmt.Sprintf("viewer-%d", i)), st.viewerAddr)
		}
		st.viewers = append(st.viewers, newViewerRec(v, st.check))
	}
	return nil
}

// disconnect stops the render server and closes the viewers, leaving
// the serving path up for the next connect.
func (st *stack) disconnect() error {
	err := st.stopServer()
	for _, v := range st.viewers {
		v.v.Close()
		<-v.done
	}
	st.srv, st.viewers = nil, nil
	return err
}

// prov returns the named provenance log of a traced run (nil, which
// every layer treats as "off", otherwise).
func (st *stack) prov(node string) *provenance.Log {
	if st.provs == nil {
		return nil
	}
	l := provenance.NewLog(node, 0)
	st.provs[node] = l
	return l
}

// camera is the server's orbit camera for the seeded view.
func (st *stack) camera(_ int, d vol.Dims) (*render.Camera, error) {
	v := st.in.view
	return render.NewOrbitCamera(d, v.Azimuth, v.Elevation, v.Distance)
}

// renderReferences renders every step with pipeline.Run at the
// workload's own P and L. A serial render.Render differs from the
// composited pipeline output in the last bits, so it cannot serve as
// the reference for a lossless check.
func (st *stack) renderReferences() error {
	st.refs = make([]*img.Frame, st.w.steps)
	_, err := pipeline.Run(volio.FileStore{R: st.reader}, pipeline.Options{
		P: st.w.p, L: st.w.l,
		ImageW: st.w.size, ImageH: st.w.size,
		TF:       st.tf,
		CameraFn: st.camera,
	}, func(f *pipeline.Frame) error {
		st.refs[f.Step] = f.Image.ToFrame(0)
		return nil
	})
	if err != nil {
		return fmt.Errorf("rendering reference frames: %w", err)
	}
	if st.w.lossless {
		st.refIdx = map[uint32][]int{}
		for s, f := range st.refs {
			k := crc32.ChecksumIEEE(f.Pix)
			st.refIdx[k] = append(st.refIdx[k], s)
		}
	}
	return nil
}

// startServing brings up the workload's serving path: the render
// server dials lnR unshaped; viewers dial the address in viewerAddr,
// whose accepted connections are shaped to the workload's link.
func (st *stack) startServing() (err error) {
	if st.lnR, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.lnV = linkListener{Listener: ln, prof: st.w.link, bytes: &st.linkBytes}
	st.viewerAddr = ln.Addr().String()
	switch st.w.topo {
	case viaDaemon:
		st.daemon = transport.NewDaemon(st.lnR)
		st.daemon.SetProvenance(st.prov("daemon"))
		st.serve(func() { _ = st.daemon.Serve() })
		st.serve(func() { acceptInto(st.lnV, st.daemon.ServeConn) })
	case viaBroker:
		st.root = stream.NewBroker(brokerConfig())
		st.edge = st.root
		st.root.SetProvenance(st.prov("root"))
		if st.tracer != nil {
			st.edgeTracer = obs.NewTracer(nil, 0)
			st.edge.SetTracer(st.edgeTracer)
		}
		st.serve(func() { _ = st.root.Serve(st.lnR) })
		st.serve(func() { acceptInto(st.lnV, st.root.ServeConn) })
	case viaRelay:
		st.root = stream.NewBroker(brokerConfig())
		st.root.SetProvenance(st.prov("root"))
		st.serve(func() { _ = st.root.Serve(st.lnR) })
		// The relay node serves its broker on lnV itself, so every
		// viewer link it accepts is shaped at the edge.
		st.node, err = relay.NewNode(st.lnV, relay.Config{
			Name:    "edge",
			Tier:    1,
			Parents: []string{st.lnR.Addr().String()},
			Stream:  brokerConfig(),
			Prov:    st.prov("edge"),
		})
		if err != nil {
			return err
		}
		st.tree = &relay.Tree{Root: st.root, Levels: [][]*relay.Node{{st.node}}}
		st.edge = st.node.Broker()
		if st.tracer != nil {
			st.edgeTracer, st.rootTracer = obs.NewTracer(nil, 0), obs.NewTracer(nil, 0)
			st.edge.SetTracer(st.edgeTracer)
			st.root.SetTracer(st.rootTracer)
		}
		if err := waitFor(5*time.Second, func() bool { return len(st.root.ClientSnapshots()) == 1 }); err != nil {
			return fmt.Errorf("relay never attached to the root broker: %w", err)
		}
	}
	return nil
}

// serve runs f on a goroutine that close waits for.
func (st *stack) serve(f func()) {
	st.serveDone.Add(1)
	go func() {
		defer st.serveDone.Done()
		f()
	}()
}

// acceptInto hands every accepted connection to serve until the
// listener closes.
func acceptInto(ln net.Listener, serve func(net.Conn)) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		serve(c)
	}
}

// start runs the render server and waits for a first frame on every
// viewer, returning the start-up latency: Server.Run to the first
// frame on the last viewer.
func (st *stack) start() (time.Duration, error) {
	if d := st.daemon; d != nil {
		st.daemonBase = [2]int64{d.Stats().ImagesForwarded.Load(), d.Stats().ImagesDropped.Load()}
	}
	st.runAt = time.Now()
	go func() { st.runErr <- st.srv.Run() }()
	var last time.Time
	err := waitFor(30*time.Second, func() bool {
		last = time.Time{}
		for _, v := range st.viewers {
			at := v.firstAt()
			if at.IsZero() {
				return false
			}
			if at.After(last) {
				last = at
			}
		}
		return true
	})
	if err != nil {
		return 0, fmt.Errorf("waiting for the first frame on every viewer: %w", err)
	}
	return last.Sub(st.runAt), nil
}

// stopServer stops the render server and, if it was running, waits
// for Run to return.
func (st *stack) stopServer() error {
	if st.srv == nil {
		return nil
	}
	st.srv.Stop()
	if st.runAt.IsZero() {
		return nil
	}
	select {
	case err := <-st.runErr:
		st.runAt = time.Time{}
		return err
	case <-time.After(10 * time.Second):
		return errors.New("render server did not stop within 10s")
	}
}

// close tears everything down and removes the dataset file. It waits
// for every goroutine the stack started.
func (st *stack) close() {
	st.closeOnce.Do(func() {
		_ = st.disconnect()
		st.stopServing()
		if st.reader != nil {
			st.reader.Close()
		}
		if st.path != "" {
			os.Remove(st.path)
		}
	})
}

// stopServing closes the serving path and waits for its goroutines.
func (st *stack) stopServing() {
	switch {
	case st.tree != nil:
		st.tree.Close()
	case st.root != nil:
		st.root.Close()
	case st.daemon != nil:
		st.daemon.Close()
	}
	for _, ln := range []net.Listener{st.lnR, st.lnV} {
		if ln != nil {
			ln.Close()
		}
	}
	st.serveDone.Wait()
	st.daemon, st.root, st.node, st.tree, st.edge = nil, nil, nil, nil, nil
	st.lnR, st.lnV = nil, nil
}

// check is the correctness gate for one delivered frame. Every frame
// must have the workload's dimensions. A lossless frame must equal a
// reference frame bit for bit, which also identifies its step; a
// lossy frame is identified by its frame ID (with one pipeline group,
// frame k is the k-th step read) and scored by PSNR.
func (st *stack) check(f *display.Frame, at time.Time) (int, time.Time, float64, error) {
	if f.Image == nil || f.Image.W != st.w.size || f.Image.H != st.w.size {
		w, h := 0, 0
		if f.Image != nil {
			w, h = f.Image.W, f.Image.H
		}
		return -1, time.Time{}, 0, fmt.Errorf("frame %d is %dx%d, want %dx%d", f.ID, w, h, st.w.size, st.w.size)
	}
	if st.w.lossless {
		for _, s := range st.refIdx[crc32.ChecksumIEEE(f.Image.Pix)] {
			if !bytes.Equal(st.refs[s].Pix, f.Image.Pix) {
				continue
			}
			rd, ok := st.store.lastBefore(s, at)
			if !ok {
				return s, time.Time{}, 0, fmt.Errorf("frame %d shows step %d before it was read", f.ID, s)
			}
			return s, rd.start, psnrCap, nil
		}
		return -1, time.Time{}, 0, fmt.Errorf("frame %d matches no reference frame bit for bit", f.ID)
	}
	if st.w.l != 1 {
		return -1, time.Time{}, 0, fmt.Errorf("frame %d: lossy frames are identified by read order, which needs L=1", f.ID)
	}
	rd, ok := st.store.nth(int(f.ID))
	if !ok {
		return -1, time.Time{}, 0, fmt.Errorf("frame %d has no matching step read", f.ID)
	}
	p, err := img.PSNR(f.Image, st.refs[rd.step])
	if err != nil {
		return rd.step, rd.start, 0, fmt.Errorf("frame %d: %w", f.ID, err)
	}
	return rd.step, rd.start, math.Min(p, psnrCap), nil
}

// waitFor polls cond every 2 ms until it holds or d passes.
func waitFor(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", d)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
