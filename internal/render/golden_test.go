package render

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/img"
	"repro/internal/tf"
	"repro/internal/vol"
)

// goldenVolume returns a mid-run step of a preset dataset, small
// enough for the golden sweep.
func goldenVolume(t *testing.T, name string) *vol.Volume {
	t.Helper()
	g, err := datagen.ByName(name, 0.15, 8)
	if err != nil {
		t.Fatal(err)
	}
	v, err := g.Step(3)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// renderBands renders with the given options and records how often
// each scanline was reported done through TileDone (when tileDone).
func renderBands(t *testing.T, b *vol.Brick, cam *Camera, tfn *tf.TF, opt Options, tileDone bool, w, h int) (*img.RGBA, Stats, []int) {
	t.Helper()
	var mu sync.Mutex
	seen := make([]int, h)
	if tileDone {
		opt.TileDone = func(y0, y1 int) {
			mu.Lock()
			defer mu.Unlock()
			for y := y0; y < y1; y++ {
				seen[y]++
			}
		}
	}
	dst := img.NewRGBA(w, h)
	st, err := RenderRegion(b, b.Region, cam, tfn, opt, dst)
	if err != nil {
		t.Fatal(err)
	}
	return dst, st, seen
}

func checkBandsOnce(t *testing.T, seen []int) {
	t.Helper()
	for y, n := range seen {
		if n != 1 {
			t.Fatalf("row %d reported done %d times", y, n)
		}
	}
}

// TestSkippingGolden holds the renderer, with its always-on
// empty-space skipping, to the plain full march: every preset, each
// brick of KD splits 1/2/4/8, four views, Over with and without
// shading and MIP, Workers 1/2/4, with and without TileDone and a
// pixel mask. Pixels must be bit-identical, Samples+Skipped must equal
// the full march's samples, every band must be reported exactly once,
// and MIP must never skip.
func TestSkippingGolden(t *testing.T) {
	const W, H = 24, 24
	mask := make([]bool, W*H)
	for i := range mask {
		mask[i] = i%5 == 0 || (i/W > H/3 && i%4 != 1)
	}
	views := [][2]float64{{0.6, 0.35}, {2.2, -0.4}, {3.9, 0.9}, {5.3, 0.1}}
	type variant struct {
		mode    Mode
		shading bool
	}
	variants := []variant{{ModeOver, false}, {ModeOver, true}, {ModeMIP, false}}
	skipped := 0 // over the whole sweep: the dense vortex may leave nothing to skip
	for _, name := range []string{"jet", "vortex", "mixing"} {
		t.Run(name, func(t *testing.T) {
			v := goldenVolume(t, name)
			tfn, err := tf.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			var bricks []*vol.Brick
			for _, n := range []int{1, 2, 4, 8} {
				boxes, err := vol.SplitKD(v.Dims, n)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range boxes {
					bricks = append(bricks, mustBrick(t, v, b))
				}
			}
			for _, view := range views {
				cam, err := NewOrbitCamera(v.Dims, view[0], view[1], 1.5)
				if err != nil {
					t.Fatal(err)
				}
				for _, va := range variants {
					for _, useMask := range []bool{false, true} {
						opt := DefaultOptions()
						opt.Mode, opt.Shading = va.mode, va.shading
						if useMask {
							opt.PixelMask = mask
						}
						for bi, br := range bricks {
							ref := img.NewRGBA(W, H)
							plainSt, err := plainRender(br, br.Region, cam, tfn, opt, ref)
							if err != nil {
								t.Fatal(err)
							}
							for _, workers := range []int{1, 2, 4} {
								for _, tileDone := range []bool{false, true} {
									where := fmt.Sprintf("view=%v mode=%d shading=%v mask=%v brick=%d %v workers=%d tiledone=%v",
										view, va.mode, va.shading, useMask, bi, br.Region, workers, tileDone)
									o := opt
									o.Workers = workers
									got, st, seen := renderBands(t, br, cam, tfn, o, tileDone, W, H)
									for i := range ref.Pix {
										if got.Pix[i] != ref.Pix[i] {
											t.Fatalf("%s: pixel float %d differs: %v vs %v", where, i, got.Pix[i], ref.Pix[i])
										}
									}
									if st.Rays != plainSt.Rays || st.Pixels != plainSt.Pixels || st.Samples+st.Skipped != plainSt.Samples {
										t.Fatalf("%s: stats %+v do not account for the plain march %+v", where, st, plainSt)
									}
									if va.mode == ModeMIP && st.Skipped != 0 {
										t.Fatalf("%s: MIP skipped %d samples", where, st.Skipped)
									}
									if tileDone {
										checkBandsOnce(t, seen)
									}
									skipped += st.Skipped
								}
							}
						}
					}
				}
			}
		})
	}
	if skipped == 0 {
		t.Fatal("no render skipped any sample")
	}
}

// A brick with no visible cell renders nothing and takes no sample,
// yet accounts for every skipped lattice sample and still reports
// every TileDone band exactly once (the DFB compositor waits on them).
func TestSkippingTransparentBrick(t *testing.T) {
	v := goldenVolume(t, "mixing")
	boxes, err := vol.SplitKD(v.Dims, 2)
	if err != nil {
		t.Fatal(err)
	}
	br := mustBrick(t, v, boxes[1]) // the right half, which the flow has not reached
	cam, err := NewOrbitCamera(v.Dims, 0.6, 0.35, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	const W, H = 32, 30
	opt := DefaultOptions()
	ref := img.NewRGBA(W, H)
	plainSt, err := plainRender(br, br.Region, cam, tf.Mixing(), opt, ref)
	if err != nil {
		t.Fatal(err)
	}
	if plainSt.Pixels != 0 || plainSt.Samples == 0 {
		t.Fatalf("want a transparent brick the plain march samples; got %+v", plainSt)
	}
	for _, workers := range []int{1, 2, 4} {
		o := opt
		o.Workers = workers
		got, st, seen := renderBands(t, br, cam, tf.Mixing(), o, true, W, H)
		if st.Samples != 0 || st.Skipped != plainSt.Samples || st.Rays != plainSt.Rays {
			t.Fatalf("workers=%d: stats %+v, want no samples and %d skipped", workers, st, plainSt.Samples)
		}
		for i, p := range got.Pix {
			if p != 0 {
				t.Fatalf("workers=%d: pixel float %d = %v on a transparent brick", workers, i, p)
			}
		}
		checkBandsOnce(t, seen)
	}
}

// A region reaching past the brick's stored data samples its clamped
// border there; clipping must keep those samples.
func TestSkippingRegionBeyondData(t *testing.T) {
	v := goldenVolume(t, "jet")
	box := vol.Box{X0: 4, Y0: 5, Z0: 3, X1: 14, Y1: 15, Z1: 12}
	br, err := v.Extract(box, 0)
	if err != nil {
		t.Fatal(err)
	}
	region := vol.Box{X0: 1, Y0: 2, Z0: 0, X1: 17, Y1: 18, Z1: 15}
	for _, view := range [][2]float64{{0.6, 0.35}, {3.9, 0.9}} {
		cam, err := NewOrbitCamera(v.Dims, view[0], view[1], 1.5)
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		ref := img.NewRGBA(24, 24)
		plainSt, err := plainRender(br, region, cam, tf.Jet(), opt, ref)
		if err != nil {
			t.Fatal(err)
		}
		got := img.NewRGBA(24, 24)
		st, err := RenderRegion(br, region, cam, tf.Jet(), opt, got)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Pix {
			if got.Pix[i] != ref.Pix[i] {
				t.Fatalf("view %v: pixel float %d differs: %v vs %v", view, i, got.Pix[i], ref.Pix[i])
			}
		}
		checkSkipStats(t, st, plainSt)
	}
}
