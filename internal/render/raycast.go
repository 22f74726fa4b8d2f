package render

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/accel"
	"repro/internal/img"
	"repro/internal/tf"
	"repro/internal/vol"
)

// Mode selects the ray compositing rule.
type Mode int

// Compositing modes.
const (
	// ModeOver is classic direct volume rendering: front-to-back
	// alpha compositing of classified samples.
	ModeOver Mode = iota
	// ModeMIP is maximum intensity projection: the ray keeps its
	// largest normalized sample and classifies it once — a common
	// preview mode for scalar fields (no shading, order independent).
	ModeMIP
)

// Options controls the ray caster.
type Options struct {
	// Step is the sampling distance along the ray in grid units.
	Step float64
	// Workers is the number of goroutines ray casting scanline tiles.
	// 0 means runtime.GOMAXPROCS(0); 1 forces the serial path;
	// negative values are rejected by validation. Output is
	// bit-identical for every worker count — tiles partition the
	// image and each pixel is computed by exactly one worker with the
	// same arithmetic as the serial loop. PixelMask differential
	// rendering composes with parallel tiles: masked-off pixels are
	// skipped inside each tile, and the dynamic tile queue keeps
	// workers busy when the mask (or early termination) makes some
	// tiles nearly free.
	Workers int
	// Shading enables gradient (Phong diffuse) shading (ModeOver
	// only).
	Shading bool
	// Light is the direction toward the light source; used when
	// Shading is set. Zero value means headlight (along the view ray).
	Light Vec3
	// TerminationAlpha stops a ray once accumulated opacity exceeds
	// this value (early ray termination). 0 means the default 0.98.
	TerminationAlpha float32
	// Mode selects Over (default) or MIP compositing.
	Mode Mode
	// PixelMask, when set (length W*H), restricts rendering to the
	// true pixels; the others are left untouched in dst. Used by
	// differential (temporal-reuse) rendering.
	PixelMask []bool
	// TileDone, when set, is called once per scanline band [y0,y1) as
	// soon as every pixel in it has been written — the completion hook
	// the distributed-framebuffer compositor uses to ship finished
	// tiles while the rest of the frame is still rendering. Bands
	// partition the image and are each reported exactly once, in
	// arbitrary order; with Workers > 1 the calls come concurrently
	// from worker goroutines. Purely observational: output is
	// bit-identical with or without the hook (the serial path renders
	// in bands of the same size the parallel tiler uses, and pixels
	// are independent).
	TileDone func(y0, y1 int)
}

// DefaultOptions are the renderer settings used across the paper
// experiments.
func DefaultOptions() Options {
	return Options{Step: 0.8, Shading: true, TerminationAlpha: 0.98}
}

func (o *Options) normalize() error {
	if o.Step <= 0 {
		return fmt.Errorf("render: step %v must be positive", o.Step)
	}
	if o.TerminationAlpha == 0 {
		o.TerminationAlpha = 0.98
	}
	if o.TerminationAlpha < 0 || o.TerminationAlpha > 1 {
		return fmt.Errorf("render: termination alpha %v out of [0,1]", o.TerminationAlpha)
	}
	if o.Workers < 0 {
		return fmt.Errorf("render: workers %d must not be negative (0 selects GOMAXPROCS)", o.Workers)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// Stats reports the work a render call performed; the discrete-event
// simulator uses these counts with calibrated per-unit costs.
type Stats struct {
	Rays    int // rays intersecting the brick
	Samples int // volume samples taken
	Pixels  int // pixels with nonzero contribution
	// Skipped counts the lattice samples empty-space skipping avoided:
	// Samples+Skipped is what a full march of every ray would take.
	Skipped int
}

// WholeVolume returns a zero-origin brick view of v for single-node
// rendering: its region is the whole volume, it shares v's data (no
// copy) and it normalizes with v's current value range, so sampling it
// is arithmetically identical to sampling v. Take a new view after
// v.UpdateRange.
func WholeVolume(v *vol.Volume) *vol.Brick {
	return &vol.Brick{Region: v.Bounds(), Data: v, ParentDims: v.Dims, ParentMin: v.Min, ParentMax: v.Max}
}

// gridPool recycles the macrocell grids RenderRegion builds per call,
// so empty-space skipping adds no steady-state allocation.
var gridPool = sync.Pool{New: func() any { return new(accel.Grid) }}

// occupiedBounds returns the parent-grid box outside which every
// sample of b is transparent under t, padded by one voxel so that no
// rounding in ray setup can clip a visible sample; ok=false when the
// whole brick is transparent.
func occupiedBounds(b *vol.Brick, t *tf.TF) (vol.Box, bool, error) {
	g := gridPool.Get().(*accel.Grid)
	defer gridPool.Put(g)
	if err := g.Rebuild(b.Data, b.Origin, b.Normalize, 0); err != nil {
		return vol.Box{}, false, err
	}
	occ, ok := g.Occupied(t.MaxAlpha)
	occ.X0, occ.Y0, occ.Z0 = occ.X0-1, occ.Y0-1, occ.Z0-1
	occ.X1, occ.Y1, occ.Z1 = occ.X1+1, occ.Y1+1, occ.Z1+1
	// Positions past the stored data sample its clamped border, so a
	// visible cell on a border face leaves everything beyond that face
	// visible too (a region reaching outside the data stays exact).
	o, d := b.Origin, b.Data.Dims
	if occ.X0 < o[0] {
		occ.X0 = math.MinInt32
	}
	if occ.Y0 < o[1] {
		occ.Y0 = math.MinInt32
	}
	if occ.Z0 < o[2] {
		occ.Z0 = math.MinInt32
	}
	if occ.X1 > o[0]+d.NX {
		occ.X1 = math.MaxInt32
	}
	if occ.Y1 > o[1]+d.NY {
		occ.Y1 = math.MaxInt32
	}
	if occ.Z1 > o[2]+d.NZ {
		occ.Z1 = math.MaxInt32
	}
	return occ, ok, nil
}

// RenderRegion ray-casts the part of the volume inside region into
// dst, a full-size premultiplied RGBA image. Pixels whose rays miss
// the region are left untouched (transparent), which is what the
// compositor expects of a partial image. dst must be cleared by the
// caller if reused.
//
// In ModeOver every ray is clipped to the bounds of the brick's
// macrocells the transfer function leaves visible (empty-space
// skipping, see internal/accel). Samples stay on the global k·Step
// lattice and the clipped-off ones are provably transparent, so the
// image is identical to marching the whole region.
func RenderRegion(b *vol.Brick, region vol.Box, cam *Camera, t *tf.TF, opt Options, dst *img.RGBA) (Stats, error) {
	if err := opt.normalize(); err != nil {
		return Stats{}, err
	}
	if region.Empty() {
		return Stats{}, fmt.Errorf("render: empty region")
	}
	if !cam.ready {
		if err := cam.Finish(); err != nil {
			return Stats{}, err
		}
	}
	if opt.PixelMask != nil && len(opt.PixelMask) != dst.W*dst.H {
		return Stats{}, fmt.Errorf("render: pixel mask of %d entries for %dx%d image", len(opt.PixelMask), dst.W, dst.H)
	}
	rr := &rowRenderer{
		b:         *b,
		region:    region,
		cam:       cam,
		opt:       &opt,
		lut:       t.LUT(),
		light:     opt.Light.Normalized(),
		headlight: opt.Light == (Vec3{}),
		dst:       dst,
	}
	if opt.Mode == ModeOver {
		var err error
		if rr.occ, rr.occupied, err = occupiedBounds(b, t); err != nil {
			return Stats{}, err
		}
	}
	if opt.Workers > 1 && dst.H > 1 {
		return renderTiled(rr, opt.Workers), nil
	}
	if opt.TileDone != nil {
		// Serial path with a completion hook: render in the same
		// scanline bands the parallel tiler uses so tiles stream out as
		// they finish. Pixels are independent, so chunking the row loop
		// leaves the output bit-identical to one full renderRows pass.
		var st Stats
		for y0 := 0; y0 < dst.H; y0 += tileRows {
			y1 := min(y0+tileRows, dst.H)
			ts := rr.renderRows(y0, y1)
			st.Rays += ts.Rays
			st.Samples += ts.Samples
			st.Pixels += ts.Pixels
			st.Skipped += ts.Skipped
			opt.TileDone(y0, y1)
		}
		return st, nil
	}
	return rr.renderRows(0, dst.H), nil
}

// rowRenderer carries the per-call invariants of one RenderRegion
// invocation so a span of scanlines can be rendered independently —
// the unit of work of both the serial path and the parallel tile
// queue. All fields are read-only during rendering; dst is shared but
// each pixel is written by exactly one renderRows call.
type rowRenderer struct {
	// b is a copy of the caller's brick header (the data is shared),
	// so a whole-volume view built per call stays off the heap.
	b      vol.Brick
	region vol.Box
	// occ bounds the positions whose samples can be visible (ModeOver;
	// see occupiedBounds); occupied=false means none can.
	occ      vol.Box
	occupied bool
	cam      *Camera
	opt      *Options
	// lut is the transfer function's baked classification table,
	// indexed directly so the inner sampling loop is a flat load
	// instead of a method call (see tf.LUT — identical arithmetic to
	// tf.Classify, so results are bit-identical).
	lut       []float32
	light     Vec3
	headlight bool
	dst       *img.RGBA
}

// lutScale converts a clamped normalized value to a LUT index.
const lutScale = float32(tf.LUTSize - 1)

// classify replicates tf.Classify against the captured table.
func (rr *rowRenderer) classify(v float32) (r, g, b, a float32) {
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	i := int(v*lutScale+0.5) * 4
	return rr.lut[i], rr.lut[i+1], rr.lut[i+2], rr.lut[i+3]
}

// renderRows ray-casts scanlines [y0,y1) of the target image. It is
// the whole hot path: the serial renderer calls it once with the full
// range, the parallel renderer once per tile.
func (rr *rowRenderer) renderRows(y0, y1 int) Stats {
	var st Stats
	b, opt, dst, cam := &rr.b, rr.opt, rr.dst, rr.cam
	w, h := dst.W, dst.H
	step, termA := opt.Step, opt.TerminationAlpha
	for py := y0; py < y1; py++ {
		for px := 0; px < w; px++ {
			if opt.PixelMask != nil && !opt.PixelMask[py*w+px] {
				continue
			}
			orig, dir := cam.Ray(px, py, w, h)
			tn, tfar, ok := IntersectBox(orig, dir, rr.region)
			if !ok || tfar <= tn {
				continue
			}
			st.Rays++
			if opt.Mode == ModeMIP {
				rr.mipRay(orig, dir, tn, tfar, &st, py*w+px)
				continue
			}
			// Jitter-free fixed stepping keeps partial images from
			// different bricks consistent along the same ray: sample
			// positions are aligned to global multiples of Step so a
			// ray crossing a brick boundary continues the same
			// sample sequence.
			// Samples at exactly tfar belong to the next brick along
			// the ray (strict <), so bricks sharing a face never
			// double-count a sample. A full march takes the lattice
			// indices [k0, kend).
			k0 := math.Ceil(tn / step)
			kend := latticeEnd(k0, tfar, step)
			// Clip [tn, tfar) to the visible cells' bounds. Every
			// lattice sample outside them is transparent, adds nothing
			// and cannot trigger termination, so starting later and
			// stopping earlier leaves the pixel bit-identical.
			ta, tb := tn, tn
			if rr.occupied {
				if on, off, hit := IntersectBox(orig, dir, rr.occ); hit {
					ta, tb = max(tn, on), min(tfar, off)
				}
			}
			if tb <= ta {
				st.Skipped += int(kend - k0)
				continue
			}
			kstart := max(k0, math.Ceil(ta/step))
			var r, g, bl, a float32
			ld := rr.light
			if rr.headlight {
				ld = dir.Scale(-1)
			}
			taken, terminated := 0, false
			for k := kstart; ; k++ {
				tcur := k * step
				if tcur >= tb {
					break
				}
				p := orig.Add(dir.Scale(tcur))
				raw := b.Sample(p.X, p.Y, p.Z)
				taken++
				cr, cg, cb, ca := rr.classify(b.Normalize(raw))
				if ca <= 0 {
					continue
				}
				if opt.Shading {
					gx, gy, gz := b.Gradient(p.X, p.Y, p.Z)
					gn := math.Sqrt(float64(gx*gx + gy*gy + gz*gz))
					shade := float32(0.35)
					if gn > 1e-6 {
						n := Vec3{float64(gx), float64(gy), float64(gz)}.Scale(1 / gn)
						diff := n.Dot(ld)
						if diff < 0 {
							diff = -diff // two-sided lighting for volumes
						}
						shade += 0.65 * float32(diff)
					} else {
						shade = 1 // homogeneous region: unshaded
					}
					cr *= shade
					cg *= shade
					cb *= shade
				}
				// Front-to-back compositing of a premultiplied sample.
				tr := (1 - a) * ca
				r += tr * cr
				g += tr * cg
				bl += tr * cb
				a += tr
				if a >= termA {
					terminated = true
					break
				}
			}
			st.Samples += taken
			if terminated {
				// A full march stops at the same sample.
				st.Skipped += int(kstart - k0)
			} else {
				st.Skipped += int(kend-k0) - taken
			}
			if a > 0 {
				i := (py*w + px) * 4
				dst.Pix[i] += r
				dst.Pix[i+1] += g
				dst.Pix[i+2] += bl
				dst.Pix[i+3] += a
				st.Pixels++
			}
		}
	}
	return st
}

// latticeEnd returns the first lattice index k >= from with
// k*step >= t: where a march that starts at index from stops before t.
func latticeEnd(from, t, step float64) float64 {
	k := max(from, math.Ceil(t/step))
	for k > from && (k-1)*step >= t {
		k--
	}
	for k*step < t {
		k++
	}
	return k
}

// mipRay marches one maximum-intensity-projection ray and writes the
// classified maximum into pixel index pix of dst.
func (rr *rowRenderer) mipRay(orig, dir Vec3, tn, tfar float64, st *Stats, pix int) {
	b, step, dst := &rr.b, rr.opt.Step, rr.dst
	maxV := float32(-1)
	k0 := math.Ceil(tn / step)
	for k := k0; ; k++ {
		tcur := k * step
		if tcur >= tfar {
			break
		}
		p := orig.Add(dir.Scale(tcur))
		v := b.Normalize(b.Sample(p.X, p.Y, p.Z))
		st.Samples++
		if v > maxV {
			maxV = v
		}
	}
	if maxV < 0 {
		return
	}
	cr, cg, cb, ca := rr.classify(maxV)
	if ca <= 0 {
		return
	}
	i := pix * 4
	// MIP across bricks: keep the brighter contribution. Premultiplied
	// channels scale with alpha, so compare by alpha.
	if ca*1 > dst.Pix[i+3] {
		dst.Pix[i] = cr * ca
		dst.Pix[i+1] = cg * ca
		dst.Pix[i+2] = cb * ca
		dst.Pix[i+3] = ca
		st.Pixels++
	}
}

// Render ray-casts a whole volume into a new w x h image — the
// single-processor renderer the paper benchmarks at 10–20 s per 256²
// frame on one 1999-era CPU.
func Render(v *vol.Volume, cam *Camera, t *tf.TF, opt Options, w, h int) (*img.RGBA, Stats, error) {
	dst := img.NewRGBA(w, h)
	st, err := RenderRegion(WholeVolume(v), v.Bounds(), cam, t, opt, dst)
	return dst, st, err
}

// RenderBrick ray-casts one brick's owned region into a full-size
// partial image; this is what each compute node of a group runs.
func RenderBrick(b *vol.Brick, cam *Camera, t *tf.TF, opt Options, w, h int) (*img.RGBA, Stats, error) {
	dst := img.NewRGBA(w, h)
	st, err := RenderRegion(b, b.Region, cam, t, opt, dst)
	return dst, st, err
}
