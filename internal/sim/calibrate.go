package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/compress"
	"repro/internal/datagen"
	"repro/internal/img"
	"repro/internal/render"
	"repro/internal/tf"
	"repro/internal/vol"
)

// Calibration holds per-unit costs measured from this repository's
// real renderer and codecs, so simulated stage durations inherit their
// shape from real code rather than hand-picked constants.
type Calibration struct {
	// SecPerSample is the measured ray-casting cost per volume sample
	// on the calibration host, per lattice sample along the rays'
	// geometric extent: the renderer's empty-space skipping lowers the
	// cost of a sample, not the count the model multiplies it by.
	SecPerSample float64
	// Samples is the count SecPerSample divides the render time by:
	// the calibration render's Samples+Skipped, i.e. every lattice
	// sample a full march takes — the quantity EstimateT1's geometric
	// probe counts.
	Samples int
	// SecPerRay is the per-ray setup cost.
	SecPerRay float64
	// EncodeSecPerByte / DecodeSecPerByte / Ratio are measured for
	// the compression pipeline (raw-byte denominated).
	EncodeSecPerByte float64
	DecodeSecPerByte float64
	Ratio            float64
	// Frame is the rendered reference frame used for codec
	// measurements.
	Frame *img.Frame
}

// CalibrationOptions selects what to measure.
type CalibrationOptions struct {
	// Dataset names the generator ("jet", "vortex", "mixing").
	Dataset string
	// Scale reduces the measurement volume (calibration only needs a
	// representative sample); 0 means 0.4.
	Scale float64
	// ImageSize is the measurement image size; 0 means 128.
	ImageSize int
	// Codec is the measured compression chain; empty means
	// "jpeg+lzo".
	Codec string
}

// Calibrate measures renderer and codec costs on the host.
func Calibrate(opt CalibrationOptions) (*Calibration, error) {
	if opt.Dataset == "" {
		opt.Dataset = "jet"
	}
	if opt.Scale == 0 {
		opt.Scale = 0.4
	}
	if opt.ImageSize == 0 {
		opt.ImageSize = 128
	}
	if opt.Codec == "" {
		opt.Codec = "jpeg+lzo"
	}
	gen, err := datagen.ByName(opt.Dataset, opt.Scale, 3)
	if err != nil {
		return nil, err
	}
	v, err := gen.Step(1)
	if err != nil {
		return nil, err
	}
	tfn, err := tf.Preset(opt.Dataset)
	if err != nil {
		return nil, err
	}
	cam, err := render.NewOrbitCamera(v.Dims, 0.6, 0.35, 1.8)
	if err != nil {
		return nil, err
	}
	ropt := render.DefaultOptions()
	// The calibration models one 1999-era processor: per-sample cost
	// must come from a single-threaded render, not the multicore tile
	// engine, or the simulated per-node render times shrink by the
	// host's core count.
	ropt.Workers = 1

	// Min-of-3 timing: calibration may run alongside other work (e.g.
	// parallel test packages), and the minimum is the least
	// contended estimate of the true cost.
	var im *img.RGBA
	var st render.Stats
	renderTime := math.Inf(1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		var err error
		im, st, err = render.Render(v, cam, tfn, ropt, opt.ImageSize, opt.ImageSize)
		if err != nil {
			return nil, err
		}
		if el := time.Since(start).Seconds(); el < renderTime {
			renderTime = el
		}
	}
	c := &Calibration{Samples: st.Samples + st.Skipped}
	if c.Samples == 0 || st.Rays == 0 {
		return nil, fmt.Errorf("sim: calibration render did no work")
	}
	// Attribute 85% of the time to sampling and the rest to per-ray
	// setup — a crude split that keeps both terms positive and lets
	// sample-dominated projections extrapolate across image sizes.
	c.SecPerSample = renderTime * 0.85 / float64(c.Samples)
	c.SecPerRay = renderTime * 0.15 / float64(st.Rays)

	frame := im.ToFrame(0)
	c.Frame = frame
	codec, err := compress.ByName(opt.Codec)
	if err != nil {
		return nil, err
	}
	const reps = 3
	encT, decT := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	var encoded []byte
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		encoded, err = codec.EncodeFrame(frame)
		if err != nil {
			return nil, err
		}
		if el := time.Since(t0); el < encT {
			encT = el
		}
		t0 = time.Now()
		if _, err := codec.DecodeFrame(encoded); err != nil {
			return nil, err
		}
		if el := time.Since(t0); el < decT {
			decT = el
		}
	}
	raw := float64(len(frame.Pix))
	c.EncodeSecPerByte = encT.Seconds() / raw
	c.DecodeSecPerByte = decT.Seconds() / raw
	c.Ratio = float64(len(encoded)) / raw
	return c, nil
}

// EstimateT1 projects the single-node render time of one full-size
// time step at the given image size by probing sample counts with a
// cheap low-resolution ray pass over the full-size volume bounds.
func (c *Calibration) EstimateT1(dims vol.Dims, imageW, imageH int, step float64) time.Duration {
	const probe = 48
	samples := probeSamples(dims, probe, probe, step)
	// Scale sample count from the probe resolution to the target.
	scale := float64(imageW*imageH) / float64(probe*probe)
	total := samples * scale
	rays := float64(imageW * imageH)
	return time.Duration((total*c.SecPerSample + rays*c.SecPerRay) * float64(time.Second))
}

// probeSamples counts ray-marching samples geometrically (no volume
// data needed): rays against the volume bounding box.
func probeSamples(dims vol.Dims, w, h int, step float64) float64 {
	cam, err := render.NewOrbitCamera(dims, 0.6, 0.35, 1.8)
	if err != nil {
		return 0
	}
	box := vol.Box{X1: dims.NX, Y1: dims.NY, Z1: dims.NZ}
	var total float64
	for py := 0; py < h; py++ {
		for px := 0; px < w; px++ {
			orig, dir := cam.Ray(px, py, w, h)
			tn, tf2, ok := render.IntersectBox(orig, dir, box)
			if !ok {
				continue
			}
			total += (tf2 - tn) / step
		}
	}
	return total
}

// MeasuredImbalance returns an imbalance function backed by the
// geometric per-brick sample shares of a kd decomposition of dims:
// imbalance(G) = max brick share / mean share.
func (c *Calibration) MeasuredImbalance(dims vol.Dims) func(int) float64 {
	cache := map[int]float64{}
	return func(g int) float64 {
		if g <= 1 {
			return 1
		}
		if v, ok := cache[g]; ok {
			return v
		}
		v := measureImbalance(dims, g)
		cache[g] = v
		return v
	}
}

// measureImbalance probes per-brick ray-segment work geometrically and
// averages the max/mean ratio over several viewpoints, matching the
// batch setting where the imbalance of any single view is amortized
// across an animation.
func measureImbalance(dims vol.Dims, g int) float64 {
	boxes, err := vol.SplitKD(dims, g)
	if err != nil {
		return 1
	}
	views := [][2]float64{{0.6, 0.35}, {1.8, -0.2}, {3.1, 0.7}, {4.4, 0.1}}
	const probe = 40
	var acc float64
	for _, view := range views {
		cam, err := render.NewOrbitCamera(dims, view[0], view[1], 1.8)
		if err != nil {
			return 1
		}
		work := make([]float64, len(boxes))
		for py := 0; py < probe; py++ {
			for px := 0; px < probe; px++ {
				orig, dir := cam.Ray(px, py, probe, probe)
				for i, b := range boxes {
					tn, tf2, ok := render.IntersectBox(orig, dir, b)
					if ok && tf2 > tn {
						work[i] += tf2 - tn
					}
				}
			}
		}
		var max, sum float64
		for _, w := range work {
			if w > max {
				max = w
			}
			sum += w
		}
		if sum == 0 || max == 0 {
			acc += 1
			continue
		}
		mean := sum / float64(len(work))
		acc += max / mean
	}
	return acc / float64(len(views))
}

// PaperT1 is the paper's stated single-processor render time for a
// 256x256 frame of the turbulent-jet data ("about 10 to 20 seconds");
// machine profiles scale calibrated CPU costs to hit it.
const PaperT1 = 15 * time.Second

// PaperDecodeSecPerByte is the display host's decompression cost per
// raw image byte implied by the paper's stated numbers ("the
// decompression cost is between 12 milliseconds [128²] and 600
// milliseconds [1024²]", on a single SGI O2): roughly 2e-7 s per raw
// byte at both ends of that range.
const PaperDecodeSecPerByte = 2e-7

// ScaleToPaper sets m.CPUScale so the calibrated T1 for dims at
// 256x256 matches PaperT1, returning the scaled machine and the
// scaled T1 the workload should carry.
func (c *Calibration) ScaleToPaper(m Machine, dims vol.Dims) (Machine, time.Duration) {
	t1 := c.EstimateT1(dims, 256, 256, render.DefaultOptions().Step)
	if t1 <= 0 {
		m.CPUScale = 1
		m.ViewerScale = 1
		return m, PaperT1
	}
	m.CPUScale = float64(PaperT1) / float64(t1)
	// The display host (an SGI O2) is calibrated separately: the
	// paper states its decompression costs directly, and the O2 was
	// much closer to a modern CPU at byte-pushing than the render
	// nodes were at ray casting.
	if c.DecodeSecPerByte > 0 {
		m.ViewerScale = PaperDecodeSecPerByte / c.DecodeSecPerByte
	} else {
		m.ViewerScale = 1
	}
	return m, PaperT1
}

// WorkloadFor builds a calibrated workload for a dataset at a given
// image size on machine m (already scaled). The returned workload's
// T1Render reflects the target image size (scaled from the paper's
// 256x256 anchor by geometric sample counts).
func (c *Calibration) WorkloadFor(m Machine, dims vol.Dims, steps, imgW, imgH int) Workload {
	step := render.DefaultOptions().Step
	t1At := func(w, h int) float64 {
		return float64(c.EstimateT1(dims, w, h, step))
	}
	anchor := t1At(256, 256)
	ratio := 1.0
	if anchor > 0 {
		ratio = t1At(imgW, imgH) / anchor
	}
	return Workload{
		Steps:     steps,
		StepBytes: dims.Bytes(),
		VolumeMB:  float64(dims.Bytes()) / (1 << 20),
		ImageW:    imgW,
		ImageH:    imgH,
		T1Render:  time.Duration(float64(PaperT1) * ratio),
		Imbalance: c.MeasuredImbalance(dims),
		// Run scales these by the machine's CPUScale / ViewerScale.
		CompressSecPerByte:   c.EncodeSecPerByte,
		CompressRatio:        c.Ratio,
		DecompressSecPerByte: c.DecodeSecPerByte,
	}
}
