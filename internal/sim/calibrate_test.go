package sim

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/render"
	"repro/internal/tf"
)

// The model multiplies SecPerSample by a geometric sample count
// (probeSamples), so calibration must divide the render time by the
// same count. The renderer's empty-space skipping lowers the samples
// it actually takes; dividing by those would inflate every modelled
// render time. Calibration's count must stay with the geometric one,
// on a view where the taken count alone clearly diverges from it.
func TestCalibrationCountsGeometricSamples(t *testing.T) {
	const size = 48
	cal, err := Calibrate(CalibrationOptions{Scale: 0.15, ImageSize: size})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := datagen.ByName("jet", 0.15, 3)
	if err != nil {
		t.Fatal(err)
	}
	v, err := gen.Step(1)
	if err != nil {
		t.Fatal(err)
	}
	opt := render.DefaultOptions()
	opt.Workers = 1
	geo := probeSamples(v.Dims, size, size, opt.Step)
	if d := math.Abs(float64(cal.Samples) - geo); d > 0.03*geo {
		t.Fatalf("calibration divides by %d samples, the model's geometric count is %.0f", cal.Samples, geo)
	}
	cam, err := render.NewOrbitCamera(v.Dims, 0.6, 0.35, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := render.Render(v, cam, tf.Jet(), opt, size, size)
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples+st.Skipped != cal.Samples {
		t.Fatalf("render counts %d+%d samples, calibration %d", st.Samples, st.Skipped, cal.Samples)
	}
	if float64(st.Samples) > 0.9*geo {
		t.Fatalf("skipping took %d of %.0f samples: the view no longer tells the counts apart", st.Samples, geo)
	}
}
