package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/control"
	"repro/internal/datagen"
	"repro/internal/stream"
	"repro/internal/vol"
	"repro/internal/wan"
)

// topology names the serving path between the render server and the
// viewers.
type topology int

const (
	// viaDaemon is the paper's fixed-quality path: core.Server →
	// transport.Daemon → viewer.
	viaDaemon topology = iota
	// viaBroker is the adaptive path: core.Server → stream.Broker
	// (per-client ladder, pacer, encode cache) → viewer.
	viaBroker
	// viaRelay adds one relay tier: core.Server → root stream.Broker →
	// relay.Node (its own broker) → viewers.
	viaRelay
)

func (t topology) String() string {
	return [...]string{"daemon", "broker", "broker+relay"}[t]
}

// workload is one set of inputs and one serving topology.
type workload struct {
	// name is the workload's name; README.md says why it exists.
	name string
	// dataset names the datagen generator; scale its grid scale.
	dataset string
	scale   float64
	// steps is the number of time steps written to the dataset file:
	// one pass of the looping animation.
	steps int
	// p and l are the render server's processor and group counts;
	// size the square image size.
	p, l, size int
	topo       topology
	// link shapes the daemon-side write end of every viewer
	// connection (wan.Shape on the accepted conn).
	link    wan.Profile
	viewers int
	// codec is the render server's codec. Lossless input keeps the
	// broker workloads' PSNR a property of the ladder rung alone.
	codec string
	// lossless makes the correctness gate demand bit-identical frames
	// and every step delivered at least once.
	lossless bool
	// warmup runs before the measured window so connection set-up and
	// the adaptive controller's cold start stay out of steady-state
	// figures (startup_s measures the cold start on its own).
	warmup time.Duration
}

var workloads = []workload{
	{
		name:    "render-lan",
		dataset: "mixing", scale: 0.25, steps: 8,
		p: 4, l: 2, size: 256,
		topo: viaDaemon, link: wan.LAN(), viewers: 1,
		codec: "lzo", lossless: true,
		warmup: time.Second,
	},
	{
		name:    "wan-japan",
		dataset: "vortex", scale: 0.4, steps: 8,
		p: 2, l: 1, size: 128,
		topo: viaBroker, link: wan.JapanUCD(), viewers: 1,
		codec:  "lzo",
		warmup: 2 * time.Second,
	},
	{
		name:    "relay-fanout",
		dataset: "jet", scale: 0.5, steps: 8,
		p: 2, l: 1, size: 128,
		topo: viaRelay, link: wan.NASAUCD(), viewers: 2,
		codec:  "lzo",
		warmup: 2 * time.Second,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have render-lan, wan-japan, relay-fanout)", name)
}

// dims is the grid of every time step in the dataset file.
func (w workload) dims() vol.Dims {
	g, err := datagen.ByName(w.dataset, w.scale, 0)
	if err != nil {
		return vol.Dims{}
	}
	return g.Dims()
}

// brokerConfig is the adaptive broker set-up of both broker
// workloads: the default ladder and the default 200 ms target.
func brokerConfig() stream.Config {
	return stream.Config{Ladder: stream.DefaultLadder(), Target: 200 * time.Millisecond}
}

// inputs are what the seed decides. The program under test sees only
// their effect: the dataset file's contents and the server's view.
type inputs struct {
	view control.ViewEvent
	// first is the generator time step written as step 0 of the file.
	first int
}

// seedSpan is how many consecutive window starts a seed chooses
// among, centred on the middle of the generator's run.
const seedSpan = 8

// inputsFor derives the seeded inputs: an orbit view near the
// server's default and a window of consecutive generator steps near
// the middle of the run. The ranges are narrow on purpose: a seed
// varies the data and the view, not what the workload stresses (the
// mixing shock, for one, renders at very different speeds early and
// late in its run).
func (w workload) inputsFor(seed int64) (inputs, error) {
	g, err := datagen.ByName(w.dataset, w.scale, 0)
	if err != nil {
		return inputs{}, err
	}
	mid := (g.Steps() - w.steps) / 2
	if mid < seedSpan/2 {
		return inputs{}, fmt.Errorf("%s: dataset has %d steps, too few for a %d-step window", w.name, g.Steps(), w.steps)
	}
	r := rand.New(rand.NewSource(seed))
	return inputs{
		view: control.ViewEvent{
			Azimuth:   0.6 + 0.06*(r.Float64()-0.5),
			Elevation: 0.35 + 0.03*(r.Float64()-0.5),
			Distance:  1.8,
		},
		first: mid - seedSpan/2 + r.Intn(seedSpan),
	}, nil
}

// window exposes steps [first, first+n) of a generator as a dataset
// of n steps.
type window struct {
	datagen.Generator
	first, n int
}

func (w window) Steps() int { return w.n }

func (w window) Step(t int) (*vol.Volume, error) {
	if t < 0 || t >= w.n {
		return nil, fmt.Errorf("window step %d out of range [0,%d)", t, w.n)
	}
	return w.Generator.Step(w.first + t)
}
