package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/compress"
	"repro/internal/datagen"
	"repro/internal/display"
	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/tf"
	"repro/internal/transport"
	"repro/internal/volio"
)

// FaultsResult is the fault-tolerance evaluation: a scripted daemon
// kill mid-stream (reconnect with backoff, frames resume), wire
// corruption (CRC detect-and-drop), a renderer node crash inside the
// pipeline (skip-and-continue), and the simulated cost of losing a
// group at cluster scale.
type FaultsResult struct {
	// Daemon-kill scenario.
	KillFramesBefore  int   `json:"kill_frames_before"`
	KillFramesAfter   int   `json:"kill_frames_after"`
	KillSendsDropped  int   `json:"kill_sends_dropped"`
	ViewerReconnects  int64 `json:"viewer_reconnects"`
	ViewerDials       int64 `json:"viewer_dial_attempts"`
	RendererReconnect int64 `json:"renderer_reconnects"`

	// Corruption scenario.
	CorruptFlipped   int64 `json:"corrupt_bytes_flipped"`
	CorruptDropped   int64 `json:"corrupt_frames_dropped"`
	CorruptDelivered int   `json:"corrupt_frames_delivered"`
	CorruptSent      int   `json:"corrupt_frames_sent"`

	// Pipeline node-crash scenario.
	PipeFrames        int `json:"pipe_frames"`
	PipeFailedSteps   int `json:"pipe_failed_steps"`
	PipeGroupFailures int `json:"pipe_group_failures"`

	// Simulated group loss at cluster scale.
	SimHealthyOverallS  float64 `json:"sim_healthy_overall_s"`
	SimDegradedOverallS float64 `json:"sim_degraded_overall_s"`
	SimFailedSteps      int     `json:"sim_failed_steps"`
}

// Faults runs the failure-model evaluation end to end on loopback.
func (c *Context) Faults() (*FaultsResult, error) {
	res := &FaultsResult{}
	if err := c.faultsKillReconnect(res); err != nil {
		return nil, fmt.Errorf("kill/reconnect: %w", err)
	}
	if err := c.faultsCorruption(res); err != nil {
		return nil, fmt.Errorf("corruption: %w", err)
	}
	if err := c.faultsPipeline(res); err != nil {
		return nil, fmt.Errorf("pipeline crash: %w", err)
	}
	if err := c.faultsSim(res); err != nil {
		return nil, fmt.Errorf("sim group loss: %w", err)
	}
	c.printFaults(res)
	return res, nil
}

// faultTestImage is a small deterministic raw-coded frame message of
// side x side pixels.
func faultTestImage(id uint32, side int) (*transport.ImageMsg, error) {
	f := img.NewFrame(side, side)
	for i := range f.Pix {
		f.Pix[i] = byte(i)
	}
	data, err := compress.Raw{}.EncodeFrame(f)
	if err != nil {
		return nil, err
	}
	return &transport.ImageMsg{
		FrameID: id, PieceCount: 1,
		X1: uint16(side), Y1: uint16(side), W: uint16(side), H: uint16(side),
		Codec: "raw", Data: data,
	}, nil
}

// faultsKillReconnect kills the display daemon mid-stream and verifies
// both sessions (renderer and viewer) reconnect with bounded backoff
// and that frames resume flowing end to end.
func (c *Context) faultsKillReconnect(res *FaultsResult) error {
	daemon, err := transport.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := daemon.Addr().String()
	defer func() { daemon.Close() }()

	retry := transport.RetryPolicy{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond, Factor: 2, MaxAttempts: 40}
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	rend, err := transport.NewSession(transport.SessionConfig{
		Role: transport.RoleRenderer, Dial: dial, Retry: retry, Seed: 7})
	if err != nil {
		return err
	}
	defer rend.Close()
	view, err := transport.NewSession(transport.SessionConfig{
		Role: transport.RoleDisplay, Dial: dial, Retry: retry, Seed: 11})
	if err != nil {
		return err
	}
	v := display.NewViewer(view)
	defer v.Close()
	go func() {
		for range v.Frames() {
		}
	}()

	const phase = 25
	send := func(from, to int) (sent, dropped int) {
		for i := from; i < to; i++ {
			im, imErr := faultTestImage(uint32(i), 16)
			if imErr != nil {
				dropped++
				continue
			}
			if err := rend.SendImage(im); err != nil {
				dropped++
			} else {
				sent++
			}
			time.Sleep(4 * time.Millisecond)
		}
		return
	}
	waitFrames := func(min int, d time.Duration) int {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			if n := v.Stats().Frames; n >= min {
				return n
			}
			time.Sleep(10 * time.Millisecond)
		}
		return v.Stats().Frames
	}

	send(0, phase)
	res.KillFramesBefore = waitFrames(phase/2, 3*time.Second)
	if res.KillFramesBefore == 0 {
		return fmt.Errorf("no frames arrived before the kill")
	}

	// Scripted daemon kill mid-stream, then restart on the same
	// address while the sessions are already backing off.
	daemon.Close()
	time.Sleep(50 * time.Millisecond)
	_, dropped := send(phase, phase+8) // these frames hit a dead daemon
	res.KillSendsDropped = dropped
	daemon, err = transport.ListenAndServe(addr)
	if err != nil {
		return fmt.Errorf("restart daemon: %w", err)
	}

	// Both sessions must come back on their own.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rend.State().Connected && view.State().Connected {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !rend.State().Connected || !view.State().Connected {
		return fmt.Errorf("sessions did not reconnect (renderer %+v, viewer %+v)", rend.State(), view.State())
	}

	before := v.Stats().Frames
	send(phase+8, 2*phase+8)
	total := waitFrames(before+phase/2, 3*time.Second)
	res.KillFramesAfter = total - before
	if res.KillFramesAfter == 0 {
		return fmt.Errorf("frames did not resume after reconnect")
	}
	res.ViewerReconnects = view.State().Reconnects
	res.ViewerDials = view.State().DialAttempts
	res.RendererReconnect = rend.State().Reconnects
	return nil
}

// faultsCorruption flips bytes at exact offsets inside frame payloads
// on the renderer->daemon link and verifies the CRC layer drops
// exactly those frames while the rest deliver.
func (c *Context) faultsCorruption(res *FaultsResult) error {
	daemon, err := transport.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer daemon.Close()

	const frames = 12
	im0, err := faultTestImage(0, 16)
	if err != nil {
		return err
	}
	payload, err := im0.Marshal()
	if err != nil {
		return err
	}
	// Wire layout on the renderer link: the framed hello, then one
	// framed image message per frame. Frame both to measure it, and
	// flip one byte in the middle of the payloads of frames 3, 6 and 9.
	var wire bytes.Buffer
	if err := transport.WriteMessage(&wire, transport.Message{Type: transport.MsgHello,
		Payload: transport.HelloPayload(transport.RoleRenderer, transport.KindViewer)}); err != nil {
		return err
	}
	helloLen := int64(wire.Len())
	if err := transport.WriteMessage(&wire, transport.Message{Type: transport.MsgImage, Payload: payload}); err != nil {
		return err
	}
	msgLen := int64(wire.Len()) - helloLen
	payloadAt := bytes.Index(wire.Bytes()[helloLen:], payload)
	var offsets []int64
	for _, k := range []int64{3, 6, 9} {
		offsets = append(offsets, helloLen+k*msgLen+int64(payloadAt)+int64(len(payload))/2)
	}
	inj := fault.New(fault.Plan{CorruptOffsets: offsets})

	conn, err := net.Dial("tcp", daemon.Addr().String())
	if err != nil {
		return err
	}
	rend, err := transport.NewEndpoint(inj.Wrap(conn), transport.RoleRenderer)
	if err != nil {
		return err
	}
	defer rend.Close()

	view, err := transport.Dial(daemon.Addr().String(), transport.RoleDisplay, nil)
	if err != nil {
		return err
	}
	v := display.NewViewer(view)
	defer v.Close()
	go func() {
		for range v.Frames() {
		}
	}()

	for i := 0; i < frames; i++ {
		im, err := faultTestImage(uint32(i), 16)
		if err != nil {
			return err
		}
		if err := rend.SendImage(im); err != nil {
			return fmt.Errorf("send %d: %w", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v.Stats().Frames >= frames-len(offsets) && daemon.Stats().CorruptDropped.Load() >= int64(len(offsets)) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	res.CorruptSent = frames
	res.CorruptFlipped = inj.Stats().FlippedBytes
	res.CorruptDropped = daemon.Stats().CorruptDropped.Load()
	res.CorruptDelivered = v.Stats().Frames
	if res.CorruptDropped != int64(len(offsets)) {
		return fmt.Errorf("daemon dropped %d corrupt frames, want %d", res.CorruptDropped, len(offsets))
	}
	if res.CorruptDelivered != frames-len(offsets) {
		return fmt.Errorf("viewer got %d frames, want %d", res.CorruptDelivered, frames-len(offsets))
	}
	return nil
}

// faultsPipeline crashes one renderer node mid-run and verifies only
// its group's steps are lost.
func (c *Context) faultsPipeline(res *FaultsResult) error {
	p, l, steps, size, scale := 8, 4, 12, 48, 0.12
	if c.Quick {
		p, l, steps = 4, 2, 6
	}
	store := volio.NewGenStore(datagen.NewJetScaled(scale, steps))
	m, err := pipeline.Run(store, pipeline.Options{
		P: p, L: l, ImageW: size, ImageH: size, TF: tf.Jet(),
		ContinueOnFailure: true,
		StepTimeout:       5 * time.Second,
		FaultFn:           fault.NodeCrash(fault.CrashPlan{Group: 0, Rank: 1, Step: l}),
	}, nil)
	if err != nil {
		return err
	}
	res.PipeFrames = m.Frames
	res.PipeFailedSteps = m.FailedSteps
	res.PipeGroupFailures = m.GroupFailures
	if m.GroupFailures != 1 {
		return fmt.Errorf("group failures = %d, want 1", m.GroupFailures)
	}
	if m.Frames == 0 {
		return errors.New("no frames survived the crash")
	}
	return nil
}

// faultsSim schedules the same group loss at cluster scale in the
// virtual-time simulator.
func (c *Context) faultsSim(res *FaultsResult) error {
	cfg, err := c.calibratedConfig(32, 4, 32)
	if err != nil {
		return err
	}
	healthy, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	cfg.Failures = []sim.GroupFailure{{Group: 1, AtStep: 9}}
	degraded, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	res.SimHealthyOverallS = healthy.Overall.Seconds()
	res.SimDegradedOverallS = degraded.Overall.Seconds()
	res.SimFailedSteps = degraded.FailedSteps
	return nil
}

func (c *Context) printFaults(res *FaultsResult) {
	c.printf("Fault tolerance:\n")
	c.printf("  daemon kill mid-stream: %d frames before, %d sends dropped during outage, %d frames after reconnect\n",
		res.KillFramesBefore, res.KillSendsDropped, res.KillFramesAfter)
	c.printf("  viewer reconnects=%d (dial attempts %d), renderer reconnects=%d\n",
		res.ViewerReconnects, res.ViewerDials, res.RendererReconnect)
	c.printf("  wire corruption: %d bytes flipped -> %d/%d frames CRC-dropped at the daemon, %d delivered clean\n",
		res.CorruptFlipped, res.CorruptDropped, res.CorruptSent, res.CorruptDelivered)
	c.printf("  pipeline node crash: %d frames rendered, %d steps failed, %d group(s) lost, run completed\n",
		res.PipeFrames, res.PipeFailedSteps, res.PipeGroupFailures)
	c.printf("  simulated loss of 1/4 groups: overall %.1fs -> %.1fs with %d steps lost\n\n",
		res.SimHealthyOverallS, res.SimDegradedOverallS, res.SimFailedSteps)
}
