package render

import (
	"math"

	"repro/internal/img"
	"repro/internal/tf"
	"repro/internal/vol"
)

// plainRender is the reference the golden tests hold the renderer to:
// a serial ray caster that marches every ray across the whole region
// with no empty-space skipping, sampling through the brick directly
// and classifying with tf.Classify. It is the renderer as it stood
// before skipping became unconditional; its Stats never report
// Skipped samples.
func plainRender(b *vol.Brick, region vol.Box, cam *Camera, t *tf.TF, opt Options, dst *img.RGBA) (Stats, error) {
	if err := opt.normalize(); err != nil {
		return Stats{}, err
	}
	if !cam.ready {
		if err := cam.Finish(); err != nil {
			return Stats{}, err
		}
	}
	var st Stats
	w, h := dst.W, dst.H
	light := opt.Light.Normalized()
	for py := 0; py < h; py++ {
		for px := 0; px < w; px++ {
			if opt.PixelMask != nil && !opt.PixelMask[py*w+px] {
				continue
			}
			orig, dir := cam.Ray(px, py, w, h)
			tn, tfar, ok := IntersectBox(orig, dir, region)
			if !ok || tfar <= tn {
				continue
			}
			st.Rays++
			i := (py*w + px) * 4
			if opt.Mode == ModeMIP {
				maxV := float32(-1)
				for k := math.Ceil(tn / opt.Step); ; k++ {
					tcur := k * opt.Step
					if tcur >= tfar {
						break
					}
					p := orig.Add(dir.Scale(tcur))
					st.Samples++
					if v := b.Normalize(b.Sample(p.X, p.Y, p.Z)); v > maxV {
						maxV = v
					}
				}
				if maxV < 0 {
					continue
				}
				cr, cg, cb, ca := t.Classify(maxV)
				if ca > 0 && ca > dst.Pix[i+3] {
					dst.Pix[i], dst.Pix[i+1], dst.Pix[i+2], dst.Pix[i+3] = cr*ca, cg*ca, cb*ca, ca
					st.Pixels++
				}
				continue
			}
			ld := light
			if opt.Light == (Vec3{}) {
				ld = dir.Scale(-1)
			}
			var r, g, bl, a float32
			for k := math.Ceil(tn / opt.Step); ; k++ {
				tcur := k * opt.Step
				if tcur >= tfar {
					break
				}
				p := orig.Add(dir.Scale(tcur))
				st.Samples++
				cr, cg, cb, ca := t.Classify(b.Normalize(b.Sample(p.X, p.Y, p.Z)))
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
							diff = -diff
						}
						shade += 0.65 * float32(diff)
					} else {
						shade = 1
					}
					cr *= shade
					cg *= shade
					cb *= shade
				}
				tr := (1 - a) * ca
				r += tr * cr
				g += tr * cg
				bl += tr * cb
				a += tr
				if a >= opt.TerminationAlpha {
					break
				}
			}
			if a > 0 {
				dst.Pix[i] += r
				dst.Pix[i+1] += g
				dst.Pix[i+2] += bl
				dst.Pix[i+3] += a
				st.Pixels++
			}
		}
	}
	return st, nil
}
