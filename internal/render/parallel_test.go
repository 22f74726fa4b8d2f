package render

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/img"
	"repro/internal/tf"
)

// opaqueEverywhere is a transfer function with no transparent value,
// so empty-space skipping can clip nothing.
func opaqueEverywhere() *tf.TF {
	return tf.MustNew([]tf.Point{
		{V: 0, R: 0.1, G: 0.2, B: 0.9, A: 0.01},
		{V: 0.5, R: 0.2, G: 0.9, B: 0.3, A: 0.05},
		{V: 1, R: 1, G: 0.3, B: 0.1, A: 0.3},
	})
}

// The tentpole invariant of the multicore engine: the tile renderer
// must be byte-identical to the plain serial marcher at every worker
// count, for every supported option combination — Over/MIP, shading
// on/off, with and without a differential pixel mask, and with a
// transfer function that leaves empty space for skipping to clip
// (accel=true) or none (accel=false). Stats must agree across worker
// counts, and Samples+Skipped must equal the full march's samples.
func TestParallelGoldenIdentical(t *testing.T) {
	v := testVolume(t)
	cam, err := NewOrbitCamera(v.Dims, 0.6, 0.35, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	const W, H = 48, 48
	mask := make([]bool, W*H)
	for i := range mask {
		// A deliberately irregular mask: sparse rows and a dense block.
		mask[i] = i%7 == 0 || (i/W > H/2 && i%3 != 0)
	}
	for _, mode := range []Mode{ModeOver, ModeMIP} {
		for _, shading := range []bool{false, true} {
			for _, sparse := range []bool{false, true} {
				for _, useMask := range []bool{false, true} {
					name := fmt.Sprintf("mode=%d/shading=%v/accel=%v/mask=%v", mode, shading, sparse, useMask)
					t.Run(name, func(t *testing.T) {
						tfn := opaqueEverywhere()
						if sparse {
							tfn = tf.Jet()
						}
						opt := DefaultOptions()
						opt.Mode = mode
						opt.Shading = shading
						if useMask {
							opt.PixelMask = mask
						}
						ref := img.NewRGBA(W, H)
						plainSt, err := plainRender(WholeVolume(v), v.Bounds(), cam, tfn, opt, ref)
						if err != nil {
							t.Fatal(err)
						}
						var serialSt Stats
						for _, workers := range []int{1, 2, 3, 4, 7} {
							par := opt
							par.Workers = workers
							got := img.NewRGBA(W, H)
							gotSt, err := RenderRegion(WholeVolume(v), v.Bounds(), cam, tfn, par, got)
							if err != nil {
								t.Fatal(err)
							}
							for i := range ref.Pix {
								if ref.Pix[i] != got.Pix[i] {
									t.Fatalf("workers=%d: pixel float %d differs: %v vs %v", workers, i, got.Pix[i], ref.Pix[i])
								}
							}
							if workers == 1 {
								serialSt = gotSt
							} else if gotSt != serialSt {
								t.Fatalf("workers=%d: stats %+v != serial %+v", workers, gotSt, serialSt)
							}
							checkSkipStats(t, gotSt, plainSt)
							wantSkip := sparse && mode == ModeOver
							if (gotSt.Skipped > 0) != wantSkip {
								t.Fatalf("workers=%d: skipped %d samples, want skipping=%v", workers, gotSt.Skipped, wantSkip)
							}
						}
					})
				}
			}
		}
	}
}

// checkSkipStats holds a renderer's Stats to the plain marcher's: the
// same rays and visible pixels, and Samples+Skipped equal to the full
// march's samples.
func checkSkipStats(t *testing.T, got, plain Stats) {
	t.Helper()
	if got.Rays != plain.Rays || got.Pixels != plain.Pixels || got.Samples+got.Skipped != plain.Samples {
		t.Fatalf("stats %+v do not account for the plain march %+v", got, plain)
	}
}

func TestWorkersValidation(t *testing.T) {
	v := testVolume(t)
	cam, _ := NewOrbitCamera(v.Dims, 0.4, 0.3, 1.8)
	opt := DefaultOptions()
	opt.Workers = -1
	if _, _, err := Render(v, cam, tf.Jet(), opt, 16, 16); err == nil {
		t.Fatal("want error for negative workers")
	}
	// Workers 0 clamps to GOMAXPROCS and renders normally.
	opt.Workers = 0
	if _, st, err := Render(v, cam, tf.Jet(), opt, 16, 16); err != nil || st.Rays == 0 {
		t.Fatalf("workers=0 render: %v stats %+v", err, st)
	}
	// More workers than scanlines must not deadlock, drop rows, or
	// diverge from the serial result.
	opt.Workers = 1
	ref, refSt, err := Render(v, cam, tf.Jet(), opt, 24, 8)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 64
	im, st, err := Render(v, cam, tf.Jet(), opt, 24, 8)
	if err != nil || st != refSt {
		t.Fatalf("workers>rows render: %v stats %+v want %+v", err, st, refSt)
	}
	for i := range ref.Pix {
		if im.Pix[i] != ref.Pix[i] {
			t.Fatalf("pixel float %d differs with worker surplus", i)
		}
	}
}

// TileDone must report every scanline exactly once — serial and
// parallel — and must not perturb the rendered pixels (the DFB
// compositor ships tiles straight off this callback).
func TestTileDoneCoverageAndIdentity(t *testing.T) {
	v := testVolume(t)
	cam, _ := NewOrbitCamera(v.Dims, 0.5, 0.3, 1.6)
	const W, H = 32, 33
	plain := DefaultOptions()
	plain.Workers = 1
	ref := img.NewRGBA(W, H)
	if _, err := RenderRegion(WholeVolume(v), v.Bounds(), cam, tf.Jet(), plain, ref); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			seen := make([]int, H)
			opt := DefaultOptions()
			opt.Workers = workers
			opt.TileDone = func(y0, y1 int) {
				mu.Lock()
				defer mu.Unlock()
				if y0 < 0 || y1 > H || y0 >= y1 {
					t.Errorf("bad band [%d,%d)", y0, y1)
				}
				for y := y0; y < y1; y++ {
					seen[y]++
				}
			}
			got := img.NewRGBA(W, H)
			if _, err := RenderRegion(WholeVolume(v), v.Bounds(), cam, tf.Jet(), opt, got); err != nil {
				t.Fatal(err)
			}
			for y, n := range seen {
				if n != 1 {
					t.Fatalf("row %d reported done %d times", y, n)
				}
			}
			for i := range ref.Pix {
				if got.Pix[i] != ref.Pix[i] {
					t.Fatalf("pixel float %d differs with TileDone hook", i)
				}
			}
		})
	}
}

// The tile observer must see every scanline exactly once and observe
// the configured worker count.
func TestTileObserverCoverage(t *testing.T) {
	v := testVolume(t)
	cam, _ := NewOrbitCamera(v.Dims, 0.5, 0.3, 1.6)
	const H = 33
	var mu sync.Mutex
	seen := make([]int, H)
	var dur time.Duration
	SetTileObserver(func(o TileObservation) {
		mu.Lock()
		defer mu.Unlock()
		for y := o.Y0; y < o.Y1; y++ {
			seen[y]++
		}
		dur += o.Duration
	})
	defer SetTileObserver(nil)
	opt := DefaultOptions()
	opt.Workers = 4
	if _, _, err := Render(v, cam, tf.Jet(), opt, 32, H); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for y, n := range seen {
		if n != 1 {
			t.Fatalf("row %d rendered %d times", y, n)
		}
	}
	if dur <= 0 {
		t.Fatal("observer saw no tile durations")
	}
}
