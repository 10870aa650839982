package dataset

import (
	"math"

	"repro/internal/tensor"
)

// SynthImgConfig controls the procedural image generator.
type SynthImgConfig struct {
	// Size is the spatial side length (images are Size×Size×3,
	// channels-first). The paper uses 32 (CIFAR-10); the experiment harness
	// defaults to 8 for single-CPU runs.
	Size int
	// NumClasses is the number of classes (10 to mirror CIFAR-10).
	NumClasses int
	// Examples is the number of images to generate.
	Examples int
	// Noise is the per-pixel Gaussian noise std. Higher values make the task
	// harder; 0.25 gives CIFAR-like "plateaus then climbs" curves on the
	// tiny CNN.
	Noise float64
	// Seed makes generation deterministic.
	Seed uint64
}

// SynthImg generates the "SynthImg" procedural image classification task:
// each class k is a distinct spatial/chromatic pattern (oriented gratings,
// radial blobs, checkerboards and color gradients parameterised by k),
// rendered at a random translation and amplitude, then corrupted with
// Gaussian pixel noise. Classes are balanced.
//
// The generator is the repository's substitute for CIFAR-10: it produces a
// 10-class, 3-channel image task whose Bayes error is controlled by Noise,
// exercising the identical CNN forward/backward and accuracy code paths.
func SynthImg(cfg SynthImgConfig) *Dataset {
	rng := tensor.NewRNG(cfg.Seed)
	n, s := cfg.Examples, cfg.Size
	d := &Dataset{
		X:          make([][]float64, n),
		Labels:     make([]int, n),
		NumClasses: cfg.NumClasses,
		FeatureDim: 3 * s * s,
	}
	for i := 0; i < n; i++ {
		label := i % cfg.NumClasses
		d.Labels[i] = label
		d.X[i] = renderClass(label, cfg, rng)
	}
	return d
}

// renderClass draws one image of the given class.
func renderClass(label int, cfg SynthImgConfig, rng *tensor.RNG) []float64 {
	s := cfg.Size
	img := make([]float64, 3*s*s)

	// Class-dependent pattern parameters. Deterministic in the label, so all
	// examples of a class share structure; randomness enters through phase,
	// amplitude and noise.
	angle := float64(label) * math.Pi / float64(cfg.NumClasses)
	freq := 1.0 + float64(label%5)*0.7
	phase := rng.Float64() * 2 * math.Pi
	amp := 0.75 + 0.5*rng.Float64()
	cx := float64(s)/2 + rng.Norm() // translated center for radial classes
	cy := float64(s)/2 + rng.Norm()

	cosA, sinA := math.Cos(angle), math.Sin(angle)
	// Channel mixing: each class has its own chromatic signature, one
	// weight per channel.
	var w [3]float64
	for c := range w {
		w[c] = 0.5 + 0.5*math.Cos(float64(label+c*3)*2*math.Pi/float64(cfg.NumClasses))
	}
	for y := 0; y < s; y++ {
		for x := 0; x < s; x++ {
			fx, fy := float64(x), float64(y)
			// Oriented grating along the class angle.
			u := (fx*cosA + fy*sinA) * 2 * math.Pi * freq / float64(s)
			grating := math.Sin(u + phase)
			// Radial component centred at (cx, cy).
			r := math.Hypot(fx-cx, fy-cy) / float64(s)
			radial := math.Cos(2 * math.Pi * freq * r)
			// Checker parity flips by class.
			checker := 0.0
			if (x/2+y/2)%2 == label%2 {
				checker = 0.5
			}
			base := amp * (0.6*grating + 0.4*radial)
			for c, wc := range w {
				img[(c*s+y)*s+x] = wc*base + checker*float64(c%2) + cfg.Noise*rng.Norm()
			}
		}
	}
	return img
}

// Blobs generates a k-class Gaussian blob dataset in 2 dimensions with class
// centres evenly spaced on a circle of the given radius. It is the fast,
// low-dimensional workload used by unit and integration tests.
func Blobs(examples, numClasses int, radius, std float64, seed uint64) *Dataset {
	rng := tensor.NewRNG(seed)
	d := &Dataset{
		X:          make([][]float64, examples),
		Labels:     make([]int, examples),
		NumClasses: numClasses,
		FeatureDim: 2,
	}
	for i := 0; i < examples; i++ {
		label := i % numClasses
		angle := 2 * math.Pi * float64(label) / float64(numClasses)
		d.Labels[i] = label
		d.X[i] = []float64{
			radius*math.Cos(angle) + std*rng.Norm(),
			radius*math.Sin(angle) + std*rng.Norm(),
		}
	}
	return d
}
