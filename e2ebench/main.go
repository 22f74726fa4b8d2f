// Command e2ebench is the end-to-end frame benchmark. It runs the real
// serving stack in one process over loopback TCP — a volio dataset
// file read, the parallel pipeline (render and composite over comm),
// core.Server encode, transport.Daemon or stream.Broker, an optional
// relay tier, a wan-shaped hop, display.Viewer — and reports what a
// viewer sees (frame rate, latency from time-step read to pixels,
// inter-frame delay, quality, CPU per frame, set-up time) plus
// start-up and per-layer figures from a separate traced run. Every
// delivered frame passes a correctness gate. See README.md for the
// workloads and the metric definitions.
//
//	bash e2ebench/run.sh --workload render-lan --seed 1 --seconds 30 --trace 0
//	bash e2ebench/run.sh                      # every workload, both runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	seed   int64
	window time.Duration
	dir    string
}

// An untraced run sets the workload up setupsBefore times before its
// window (measuring on the last set-up) and setupsAfter times after
// it; setup_s is the median of them all. Spreading the set-ups over
// the run keeps a few slow seconds of a shared host from moving it.
const (
	setupsBefore = 4
	setupsAfter  = 3
)

func main() {
	name := flag.String("workload", "all", "render-lan, wan-japan, relay-fanout, or all (each workload untraced and traced)")
	seed := flag.Int64("seed", 1, "workload seed: picks the orbit view and the window of time steps written to the dataset")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	dir := flag.String("dir", ".bench_build/e2ebench/work", "directory for the dataset files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{seed: *seed, window: time.Duration(*seconds) * time.Second, dir: *dir}

	var reps []*report
	if *name == "all" {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				rep, err := run(w, o, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
					os.Exit(1)
				}
				rep.print(os.Stdout)
				reps = append(reps, rep)
			}
		}
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(2)
		}
		rep, err := run(w, o, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		rep.print(os.Stdout)
		reps = append(reps, rep)
	}
	res := summary(reps)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(w workload, o options, traced bool) (*report, error) {
	if traced {
		return runTraced(w, o)
	}
	return runEndToEnd(w, o)
}

// metric is one named figure with its unit.
type metric struct {
	name, unit string
	value      float64
}

// report is one run's result: the metrics, the correctness gate's
// outcome and the lines printed above the result.
type report struct {
	workload          string
	traced            bool
	metrics           []metric
	attempted, failed int
	failures          []string
	lines             []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *report) addMeasurement(m *measurement) {
	r.attempted += m.attempted()
	r.failed += m.failed()
	r.failures = append(r.failures, m.failures...)
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// correct reports whether the gate passed and every metric has a
// value.
func (r *report) correct() bool {
	if r.failed > 0 || len(r.failures) > 0 || r.attempted < 1 {
		return false
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return false
		}
	}
	return true
}

func (r *report) print(out *os.File) {
	kind := "end-to-end metrics (untraced run)"
	if r.traced {
		kind = "per-layer metrics (traced run; -1 = layer not on this path)"
	}
	fmt.Fprintf(out, "== %s: %s\n", r.workload, kind)
	for _, l := range r.lines {
		fmt.Fprintln(out, l)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", m.name, m.value, m.unit)
	}
	status := "passed"
	if !r.correct() {
		status = "FAILED"
	}
	fmt.Fprintf(out, "correctness gate %s: %d frames attempted, %d failed\n", status, r.attempted, r.failed)
	for i, f := range r.failures {
		if i == 20 {
			fmt.Fprintf(out, "  ... %d more\n", len(r.failures)-i)
			break
		}
		fmt.Fprintln(out, "  gate:", f)
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(out, "  gate: %s has no value (no samples in the window)\n", m.name)
		}
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary folds the runs into the result line. One run reports its
// metrics by name; several (--workload all) prefix them with the
// workload.
func summary(reps []*report) result {
	res := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range reps {
		res.Correct = res.Correct && r.correct()
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, m := range r.metrics {
			name := m.name
			if len(reps) > 1 {
				name = r.workload + "/" + name
			}
			v := m.value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = -1 // JSON has no NaN; correct() already failed the run
			}
			res.Metrics[name] = jsonMetric{Value: v, Unit: m.unit}
		}
	}
	return res
}

// hostLines records the facts that bound comparability of figures
// across hosts.
func hostLines(r *report, w workload, in inputs) {
	r.printf("host: nproc=%d GOMAXPROCS=%d %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	r.printf("inputs: %s %v, generator steps [%d,%d), view az=%.4f el=%.4f dist=%.2f", w.dataset, w.dims(), in.first, in.first+w.steps, in.view.Azimuth, in.view.Elevation, in.view.Distance)
	r.printf("stack: P=%d L=%d %dx%d %s via %s, %d viewer(s) on %s (%v one-way, %.0f B/s), renderer link unshaped loopback",
		w.p, w.l, w.size, w.size, w.codec, w.topo, w.viewers, w.link.Name, w.link.Latency, w.link.Bandwidth)
}

// runEndToEnd times the set-ups for setup_s and measures one window
// without tracing.
func runEndToEnd(w workload, o options) (*report, error) {
	in, err := w.inputsFor(o.seed)
	if err != nil {
		return nil, err
	}
	r := &report{workload: w.name}
	hostLines(r, w, in)
	var totals []float64
	phases := map[string][]float64{}
	setUp := func() (*stack, error) {
		t0 := time.Now()
		st, err := bringUp(w, in, o.dir, false)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := st.connect(); err != nil {
			st.close()
			return nil, err
		}
		totals = append(totals, time.Since(t0).Seconds())
		for name, d := range st.phases {
			phases[name] = append(phases[name], d.Seconds())
		}
		phases["connect"] = append(phases["connect"], time.Since(t1).Seconds())
		return st, nil
	}
	var st *stack
	for i := 0; i < setupsBefore; i++ {
		if st, err = setUp(); err != nil {
			return nil, err
		}
		if i < setupsBefore-1 {
			st.close()
		}
	}
	if _, err := st.start(); err != nil {
		st.close()
		return nil, err
	}
	m, err := st.measure(o.window, false)
	if err != nil {
		return nil, err
	}
	for i := 0; i < setupsAfter; i++ {
		st, err := setUp()
		if err != nil {
			return nil, err
		}
		st.close()
	}
	e := m.endToEnd()
	r.add("fps", "1/s", e.fps)
	r.add("latency_p50_ms", "ms", quantile(e.latencies, 0.5))
	r.add("latency_p90_ms", "ms", quantile(e.latencies, 0.9))
	r.add("interframe_p90_ms", "ms", quantile(e.interframes, 0.9))
	r.add("psnr_db", "dB", e.psnr)
	r.add("cpu_ms_per_frame", "ms", e.cpuMSPerFrame)
	r.add("setup_s", "s", median(totals))
	r.printf("window %.2fs; frames per viewer %v by codec %v; fps by part %s; latency samples per viewer %v",
		m.secs, e.framesPerViewer, e.codecs, fmtList(e.partFPS), e.samplesPerViewer)
	r.printf("set-ups %s s; median by phase: dataset %.3f, references %.3f, serving path %.3f, connect %.3f s",
		fmtList(totals), median(phases["dataset"]), median(phases["references"]), median(phases["serve"]), median(phases["connect"]))
	r.printf("correctness checks in the window: %.3f ms CPU per frame, left out of cpu_ms_per_frame", e.checkMSPerFrame)
	for i, n := range e.samplesPerViewer {
		if n < 100 {
			r.printf("warning: viewer %d has %d latency samples; a p90 with 10 beyond it needs 100", i, n)
		}
	}
	r.addMeasurement(m)
	return r, nil
}

// coldStarts is how many start-ups a traced run times for startup_s.
const coldStarts = 12

// startUp starts the system n times on st's dataset and returns each
// start-up latency; the last start keeps running. Every start gets a
// fresh serving path, render server and viewers: a relay that
// outlives a render server suppresses the next server's frames whose
// IDs it already delivered.
func startUp(st *stack, n int) ([]float64, error) {
	var out []float64
	for j := 0; j < n; j++ {
		if j > 0 {
			if err := st.disconnect(); err != nil {
				return nil, err
			}
			st.stopServing()
			if err := st.startServing(); err != nil {
				return nil, err
			}
		}
		if err := st.connect(); err != nil {
			return nil, err
		}
		d, err := st.start()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// runTraced times coldStarts start-ups for startup_s, measures one
// untraced window (for trace overhead and the served frame rate
// against the serial baseline) and then one traced window, which gives
// the other per-layer figures and the stage self times. Each window is
// half of o.window, so a traced run takes about as long as an
// untraced one.
func runTraced(w workload, o options) (*report, error) {
	in, err := w.inputsFor(o.seed)
	if err != nil {
		return nil, err
	}
	r := &report{workload: w.name, traced: true}
	hostLines(r, w, in)
	var startups []float64
	measureOnce := func(traced bool) (*measurement, error) {
		st, err := bringUp(w, in, o.dir, traced)
		if err != nil {
			return nil, err
		}
		n := 1
		if !traced {
			n = coldStarts
		}
		d, err := startUp(st, n)
		if err != nil {
			st.close()
			return nil, err
		}
		if !traced {
			startups = d
		}
		return st.measure(o.window/2, !traced)
	}
	plain, err := measureOnce(false)
	if err != nil {
		return nil, err
	}
	m, err := measureOnce(true)
	if err != nil {
		return nil, err
	}
	r.addMeasurement(plain)
	r.addMeasurement(m)
	r.add("startup_s", "s", median(startups))
	r.printf("start-ups %s s", fmtList(startups))
	layerMetrics(r, plain, m)
	return r, nil
}

// layerMetrics adds the per-layer table: figures from the traced
// window m, plus the two that compare with the untraced window plain.
// A layer the workload's path does not contain reports -1.
func layerMetrics(r *report, plain, m *measurement) {
	st, w := m.st, m.st.w
	d0, d1 := m.w0, m.w1
	delta := func(f func(c counters) int64) float64 { return float64(f(d1) - f(d0)) }
	na := func(ok bool, v float64) float64 {
		if !ok {
			return -1
		}
		return v
	}

	var fetchMS []float64
	var fetchBytes int64
	var fetchDur time.Duration
	for _, f := range st.store.between(d0.at, d1.at) {
		fetchMS = append(fetchMS, ms(f.dur))
		fetchBytes += f.bytes
		fetchDur += f.dur
	}
	r.add("volio.fetch_ms_p50", "ms", median(fetchMS))
	r.add("volio.fetch_mb_s", "MB/s", float64(fetchBytes)/1e6/fetchDur.Seconds())

	total, self := m.stageSpans()
	for _, s := range []string{"fetch", "render", "composite", "deliver"} {
		r.add("pipeline."+s+"_ms_p50", "ms", median(total["pipeline."+s]))
	}
	servedPerSec := float64(plain.w1.srvFrames-plain.w0.srvFrames) / plain.secs
	r.add("pipeline.speedup_vs_serial", "ratio", servedPerSec*plain.serialStep.Seconds())

	frames := delta(func(c counters) int64 { return c.srvFrames })
	r.add("core.encode_ms_per_frame", "ms", delta(func(c counters) int64 { return c.srvEncodeNS })/1e6/frames)
	r.add("core.bytes_per_frame", "B", delta(func(c counters) int64 { return c.srvBytes })/frames)

	daemon := w.topo == viaDaemon
	r.add("transport.daemon_drop_frac", "ratio", na(daemon,
		ratio(delta(func(c counters) int64 { return c.daemonDrop }), delta(func(c counters) int64 { return c.daemonFwd }))))

	broker := w.topo != viaDaemon
	edgeIn := delta(func(c counters) int64 { return c.edgeIn })
	r.add("stream.rung_p50", "index", na(broker, median(m.rungs)))
	r.add("stream.est_bw_ratio", "ratio", na(broker, median(m.bwRatios)))
	r.add("stream.pacer_drop_frac", "ratio", na(broker,
		ratio(delta(func(c counters) int64 { return c.edgeDrops }), edgeIn*float64(w.viewers))))
	hits, misses := delta(func(c counters) int64 { return c.edgeHits }), delta(func(c counters) int64 { return c.edgeMisses })
	r.add("stream.cache_hit_rate", "ratio", na(broker, ratio(hits, hits+misses)))
	r.add("stream.encodes_per_frame", "ratio", na(broker, ratio(delta(func(c counters) int64 { return c.edgeEncodes }), edgeIn)))

	tree := w.topo == viaRelay
	r.add("relay.tier_encodes_per_frame", "ratio", na(tree,
		ratio(delta(func(c counters) int64 { return c.allEncodes }), delta(func(c counters) int64 { return c.rootIn }))))
	r.add("relay.dup_dropped", "count", na(tree, delta(func(c counters) int64 { return c.relayDup })))
	r.add("relay.hop_ms_p50", "ms", na(tree, median(m.relayHops())))

	e, pe := m.endToEnd(), plain.endToEnd()
	linkBytes := delta(func(c counters) int64 { return c.linkBytes })
	r.add("wire.bytes_per_frame", "B", linkBytes/float64(e.deliveredFramesTotal))
	r.add("wire.link_util", "ratio", na(w.link.Bandwidth > 0, linkBytes/(w.link.Bandwidth*m.secs*float64(w.viewers))))

	var decode, assemble []float64
	refinements, finals := 0, 0
	for _, d := range m.windowDeliveries() {
		decode = append(decode, ms(d.decode))
		assemble = append(assemble, ms(d.assemble))
		if d.refinement {
			refinements++
		} else {
			finals++
		}
	}
	r.add("display.decode_ms_p50", "ms", median(decode))
	r.add("display.assemble_ms_p50", "ms", median(assemble))
	r.add("display.refinements_per_frame", "ratio", ratio(float64(refinements), float64(finals)))

	r.add("trace.overhead_frac", "ratio", 1-e.fps/pe.fps)
	r.add("failed_frac", "ratio", ratio(float64(r.failed), float64(r.attempted)))
	r.add("latency_samples", "count", float64(len(pe.latencies)))
	r.add("host.nproc", "count", float64(runtime.NumCPU()))
	r.add("host.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))

	r.printf("untraced window %.2fs: fps %.3f, served %.3f frames/s, serial baseline %.3f ms/step; traced window %.2fs: fps %.3f",
		plain.secs, pe.fps, servedPerSec, ms(plain.serialStep), m.secs, e.fps)
	r.printf("stage times in the traced window (p50 ms; self excludes child spans):")
	r.printf("  %-24s %7s %10s %10s", "stage", "spans", "total", "self")
	for _, name := range sortedKeys(total) {
		r.printf("  %-24s %7d %10.3f %10.3f", name, len(total[name]), median(total[name]), median(self[name]))
	}
}

func sortedKeys(m spanStats) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ",")
}
