package experiments

import (
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/compress"
	"repro/internal/display"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/provenance"
	"repro/internal/relay"
	"repro/internal/stream"
	"repro/internal/transport"
)

// StatusResult is the end-to-end frame-provenance evaluation: a live
// loopback relay tree with one deterministically impaired interior
// link, crawled by the cross-process collector, which must attribute
// the dominant per-hop latency to exactly that link.
type StatusResult struct {
	Frames  int `json:"frames"`
	Viewers int `json:"viewers"`
	Tiers   int `json:"tiers"`
	FanOut  int `json:"fan_out"`
	// ImpairedLink is the link the fault injector stalls
	// (parent→child in node names); SlowestLink is what the collector
	// blamed. Attributed is the acceptance bit: they must match.
	ImpairedLink string `json:"impaired_link"`
	SlowestLink  string `json:"slowest_link"`
	Attributed   bool   `json:"attributed"`
	// ImpairedP95MS vs CleanMaxP95MS separates the blamed link from
	// the healthiest competition: attribution should rest on a real
	// latency gap, not a tie-break.
	ImpairedP95MS float64 `json:"impaired_p95_ms"`
	CleanMaxP95MS float64 `json:"clean_max_p95_ms"`
	// Journeys is how many distinct (trace, frame) histories merged.
	Journeys int                   `json:"journeys"`
	Nodes    []provenance.NodeInfo `json:"nodes"`
	Links    []provenance.LinkStat `json:"links"`
}

// Status runs the WAN status-plane experiment: a 2-tier fan-out-2
// relay tree on loopback, every process carrying the wire trace context
// and recording provenance events behind a real /debug/frames HTTP
// endpoint, with one interior relay's upstream socket stalled by the
// deterministic fault injector. The collector crawls the tree, merges
// events with clock-offset correction, and must name the impaired
// link as the dominant latency contributor.
func (c *Context) Status() (*StatusResult, error) {
	frames, stall := 40, 40*time.Millisecond
	if c.Quick {
		frames, stall = 20, 25*time.Millisecond
	}
	const tiers, fanOut = 2, 2
	side := 64

	// Impair exactly one interior link: t1-n1's upstream read side
	// stalls every KiB, so every inbound frame (≈1.5 KiB after the
	// root's re-encode) crosses the root→t1-n1 link tens of
	// milliseconds slower than its sibling's.
	inj := fault.New(fault.Plan{ReadStallEveryBytes: 1 << 10, ReadStall: stall})
	impaired := "root→t1-n1"

	tree, err := relay.BuildTree(relay.TreeSpec{
		Tiers: tiers, FanOut: fanOut,
		Stream: stream.Config{Target: 20 * time.Millisecond, QueueDepth: 4},
		Retry:  transport.RetryPolicy{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond, Factor: 2, MaxAttempts: 8},
		WrapUpstreamFor: func(tier, index int) func(net.Conn) net.Conn {
			if tier == 1 && index == 1 {
				return inj.Wrapper()
			}
			return nil
		},
		Provenance: true,
	})
	if err != nil {
		return nil, err
	}
	defer tree.Close()

	// Every process gets a real debug server so the collector crawls
	// HTTP endpoints, not in-process shortcuts.
	var servers []*obs.DebugServer
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	serve := func(component string, l *provenance.Log) (string, error) {
		dbg, err := obs.StartDebugServer("127.0.0.1:0", obs.DebugConfig{
			Component: component, Frames: l.Handler(),
		})
		if err != nil {
			return "", err
		}
		servers = append(servers, dbg)
		return "http://" + dbg.Addr().String(), nil
	}

	rendLog := provenance.NewLog("renderer", 0)
	rendURL, err := serve("renderserver", rendLog)
	if err != nil {
		return nil, err
	}
	rootURL, err := serve("displaydaemon", tree.RootProv)
	if err != nil {
		return nil, err
	}
	refs := []provenance.NodeRef{
		{Name: "renderer", URL: rendURL},
		{Name: "root", URL: rootURL, Addr: tree.Root.Addr().String()},
	}
	for _, n := range tree.Nodes() {
		url, err := serve("displaydaemon", n.Provenance())
		if err != nil {
			return nil, err
		}
		refs = append(refs, provenance.NodeRef{
			Name: n.Provenance().Node(), URL: url, Addr: n.Addr().String(),
		})
	}

	// One viewer per edge daemon, each with its own provenance log.
	edges := tree.EdgeAddrs()
	var viewers []*display.Viewer
	defer func() {
		for _, v := range viewers {
			v.Close()
		}
	}()
	for i, addr := range edges {
		ep, err := transport.Dial(addr, transport.RoleDisplay, nil)
		if err != nil {
			return nil, err
		}
		v := display.NewViewer(ep)
		vlog := provenance.NewLog(fmt.Sprintf("viewer-%d", i), 0)
		v.SetProvenance(vlog, addr)
		url, err := serve("viewer", vlog)
		if err != nil {
			v.Close()
			return nil, err
		}
		viewers = append(viewers, v)
		go func() {
			for range v.Frames() {
			}
		}()
		refs = append(refs, provenance.NodeRef{Name: vlog.Node(), URL: url})
	}

	// Synthetic traced renderer: raw frames into the root with the wire
	// trace context, recording origin events at hop 0.
	rend, err := transport.Dial(tree.Root.Addr().String(), transport.RoleRenderer, nil)
	if err != nil {
		return nil, err
	}
	defer rend.Close()
	const traceID = uint64(0x5EED0001)
	for id := 0; id < frames; id++ {
		f := testPattern(side, id)
		rendLog.Record(provenance.Event{Trace: traceID, Frame: uint32(id), Hop: 0, Event: provenance.EvRendered})
		data, err := compress.Raw{}.EncodeFrame(f)
		if err != nil {
			return nil, err
		}
		im := &transport.ImageMsg{
			FrameID:    uint32(id),
			PieceCount: 1,
			X1:         uint16(side), Y1: uint16(side),
			W: uint16(side), H: uint16(side),
			Codec: "raw",
			Data:  data,
		}
		payload, err := im.Marshal()
		if err != nil {
			return nil, err
		}
		rendLog.Record(provenance.Event{Trace: traceID, Frame: uint32(id), Hop: 0, Event: provenance.EvCompressed, Bytes: len(payload), Cause: "raw"})
		msg := transport.Message{
			Type:    transport.MsgImage,
			Payload: payload,
			Trace:   &transport.TraceCtx{TraceID: traceID, FrameID: uint32(id), Hop: 1, OriginUnixNano: time.Now().UnixNano()},
		}
		if err := rend.Send(msg); err != nil {
			return nil, fmt.Errorf("renderer send %d: %w", id, err)
		}
		rendLog.Record(provenance.Event{Trace: traceID, Frame: uint32(id), Hop: 0, Event: provenance.EvSent, Bytes: len(payload)})
		time.Sleep(25 * time.Millisecond)
	}

	// Wait for the tree to drain: the impaired branch runs tens of
	// milliseconds per frame behind, so require only the majority of
	// frames at each viewer (stall-induced pacer drops are themselves
	// part of what the tracer reports).
	minFrames := frames / 2
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, v := range viewers {
			if v.Stats().Frames < minFrames {
				done = false
				break
			}
		}
		if done {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	time.Sleep(250 * time.Millisecond) // let in-flight frames settle

	col := provenance.Collector{Nodes: refs, Budget: 150 * time.Millisecond}
	rep, err := col.Collect()
	if err != nil {
		return nil, err
	}

	res := &StatusResult{
		Frames: frames, Viewers: len(viewers), Tiers: tiers, FanOut: fanOut,
		ImpairedLink: impaired,
		Journeys:     len(rep.Journeys),
		Nodes:        rep.Nodes,
		Links:        rep.Links,
	}
	ranked := rep.Attribution()
	if len(ranked) > 0 {
		res.SlowestLink = ranked[0].Link
		res.Attributed = res.SlowestLink == impaired
	}
	for _, l := range rep.Links {
		if l.Link == impaired {
			res.ImpairedP95MS = l.P95MS
		} else if l.P95MS > res.CleanMaxP95MS {
			res.CleanMaxP95MS = l.P95MS
		}
	}

	// Per-link SLO series land in a metrics registry exactly as a
	// monitoring scrape would see them.
	reg := obs.NewRegistry()
	rep.Instrument(reg)

	if c.TracePath != "" {
		f, err := os.Create(c.TracePath)
		if err != nil {
			return nil, err
		}
		if err := rep.WriteChrome(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		c.printf("wrote merged cross-process trace to %s\n", c.TracePath)
	}

	c.printStatus(res, rep)
	return res, nil
}

func (c *Context) printStatus(res *StatusResult, rep *provenance.Report) {
	c.printf("WAN status plane: %d-tier fan-out-%d tree, %d traced frames, read-stall fault on %s\n",
		res.Tiers, res.FanOut, res.Frames, res.ImpairedLink)
	c.printf("crawled %d nodes, merged %d frame journeys\n", len(res.Nodes), res.Journeys)
	for _, l := range rep.Attribution() {
		mark := ""
		if l.Link == res.ImpairedLink {
			mark = "  <-- injected fault"
		}
		c.printf("  link %-24s frames %3d  p50 %7.1fms  p95 %7.1fms  slowest-in %3d journeys  budget-ok %.2f%s\n",
			l.Link, l.Count, l.P50MS, l.P95MS, l.SlowestCount, l.BudgetOK, mark)
	}
	c.printf("attribution: slowest link = %s (impaired %s, match=%v)\n", res.SlowestLink, res.ImpairedLink, res.Attributed)
	c.printf("sample frame waterfalls:\n")
	rep.WriteWaterfalls(c.Out, 2)
	c.printf("\n")
}
