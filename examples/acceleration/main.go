// Acceleration: the §7.1 "preprocessing hints" extensions in action.
// Renders a short jet animation two ways and compares the work done:
//
//  1. ray casting, which always clips rays to the macrocells the
//     transfer function leaves visible (empty-space skipping; the
//     skipped share comes from render.Stats),
//  2. with differential (temporal-reuse) rendering on a
//     localized-change variant of the data (identical images).
//
// go run ./examples/acceleration
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/temporal"
	"repro/internal/tf"
	"repro/internal/volio"
)

func main() {
	const (
		steps = 4
		size  = 192
	)
	store := volio.NewGenStore(datagen.NewJetScaled(0.4, 40))
	tfn := tf.Jet()
	cam := (*render.Camera)(nil)

	table := metrics.NewTable("mode", "time", "samples", "skipped/reused")

	// 1. Ray casting with empty-space skipping.
	var rayTime time.Duration
	var samples, skipped int
	for s := 0; s < steps; s++ {
		v, err := store.Fetch(20 + s)
		if err != nil {
			log.Fatal(err)
		}
		if cam == nil {
			cam, err = render.NewOrbitCamera(v.Dims, 0.6, 0.35, 1.3)
			if err != nil {
				log.Fatal(err)
			}
		}
		t0 := time.Now()
		_, st, err := render.Render(v, cam, tfn, render.DefaultOptions(), size, size)
		if err != nil {
			log.Fatal(err)
		}
		rayTime += time.Since(t0)
		samples += st.Samples
		skipped += st.Skipped
	}
	table.Row("ray casting", rayTime.Round(time.Millisecond).String(), fmt.Sprint(samples),
		fmt.Sprintf("%.0f%% of samples skipped", 100*float64(skipped)/float64(samples+skipped)))

	// 2. Differential rendering across the animation.
	cache := temporal.New()
	var diffTime time.Duration
	var diffSamples, reused int
	for s := 0; s < steps; s++ {
		v, err := store.Fetch(20 + s)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		_, st, err := cache.Render(v, cam, tfn, render.DefaultOptions(), size, size)
		if err != nil {
			log.Fatal(err)
		}
		diffTime += time.Since(t0)
		diffSamples += st.Samples
		reused += st.ReusedPixels
	}
	table.Row("differential", diffTime.Round(time.Millisecond).String(),
		fmt.Sprint(diffSamples), fmt.Sprintf("%d px reused", reused))

	fmt.Printf("%d frames of the jet at %dx%d:\n\n%s\n", steps, size, size, table.String())
	fmt.Println("both modes produce images identical to a full march (see internal/render and")
	fmt.Println("internal/temporal tests for the bit-exactness proofs)")
}
