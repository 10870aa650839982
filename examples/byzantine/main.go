// Attack gallery: what each Byzantine behaviour does to the vanilla
// baseline versus GuanYu.
//
// For every attack in the catalogue — the blind corruptions plus the
// omniscient colluders (ALIE, inner-product, anti-Krum) that observe the
// honest cluster before lying — this example runs two deployments on the
// same workload: a single-server mean-aggregating baseline with one
// Byzantine worker, and GuanYu(f̄=5, f=1) with five Byzantine workers plus
// one Byzantine server, printing the final accuracies side by side. Both
// deployments are described with the same guanyu builder; only the options
// differ.
//
// Run with: go run ./examples/byzantine
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro/guanyu"
)

type params struct {
	examples, steps, batch int
}

func main() {
	if err := run(os.Stdout, params{examples: 1000, steps: 120, batch: 16}); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, p params) error {
	attacks := []struct {
		name string
		mk   func(i int) guanyu.Attack
	}{
		{"random-gaussian", func(i int) guanyu.Attack { return guanyu.NewRandomGaussian(100, uint64(i)+1) }},
		{"sign-flip x10", func(int) guanyu.Attack { return guanyu.SignFlip{Scale: 10} }},
		{"scaled-norm x1e6", func(int) guanyu.Attack { return guanyu.ScaledNorm{Factor: 1e6} }},
		{"nan-injection", func(int) guanyu.Attack { return guanyu.NaNInjection{} }},
		{"zero", func(int) guanyu.Attack { return guanyu.Zero{} }},
		{"silent", func(int) guanyu.Attack { return guanyu.Silent{} }},
		// The adaptive adversaries: they read the honest cluster state
		// (ClusterView) each step before choosing their corruption, and
		// the colluders armed with one value craft one vector.
		{"alie z=1.5", func(int) guanyu.Attack { return guanyu.ALIE{Z: 1.5} }},
		{"inner-product", func(int) guanyu.Attack { return guanyu.InnerProduct{Eps: 3} }},
		{"anti-krum", func(int) guanyu.Attack { return guanyu.AntiKrum{} }},
	}

	ctx := context.Background()
	fmt.Fprintf(out, "%-18s %-18s %-18s\n", "attack", "vanilla (1 byz)", "GuanYu (5+1 byz)")
	for _, a := range attacks {
		vanilla, err := guanyu.New(
			guanyu.WithWorkload(guanyu.ImageWorkload(p.examples, 3)),
			guanyu.WithVanilla(),
			guanyu.WithOptimizedRuntime(),
			guanyu.WithWorkers(guanyu.PaperWorkers, 0),
			guanyu.WithAttackedWorkers(1, a.mk),
			guanyu.WithSteps(p.steps), guanyu.WithBatch(p.batch), guanyu.WithSeed(3),
		)
		if err != nil {
			return fmt.Errorf("%s vanilla: %w", a.name, err)
		}
		// Vanilla synchronous training waits for every worker, so a silent
		// node stalls it forever; the simulator reports that as a quorum
		// failure. Score it zero, like a NaN-destroyed model.
		vanillaAcc := 0.0
		if vres, err := vanilla.Run(ctx); err == nil && guanyu.IsFinite(vres.Final) {
			vanillaAcc = vres.FinalAccuracy
		}

		gy, err := guanyu.New(
			guanyu.WithWorkload(guanyu.ImageWorkload(p.examples, 3)),
			guanyu.WithServers(6, 1),
			guanyu.WithWorkers(18, 5),
			guanyu.WithAttackedWorkers(5, a.mk),
			guanyu.WithAttackedServers(1, func(i int) guanyu.Attack {
				return guanyu.TwoFaced{Inner: a.mk(i + 50)}
			}),
			guanyu.WithSteps(p.steps), guanyu.WithBatch(p.batch), guanyu.WithSeed(3),
		)
		if err != nil {
			return fmt.Errorf("%s guanyu: %w", a.name, err)
		}
		gres, err := gy.Run(ctx)
		if err != nil {
			return fmt.Errorf("%s guanyu: %w", a.name, err)
		}

		fmt.Fprintf(out, "%-18s %-18.3f %-18.3f\n", a.name, vanillaAcc, gres.FinalAccuracy)
	}
	fmt.Fprintln(out, "\nGuanYu holds its accuracy under every corrupting behaviour the")
	fmt.Fprintln(out, "vanilla deployment cannot survive (silence even stalls vanilla's")
	fmt.Fprintln(out, "all-workers quorum outright), including the omniscient colluders")
	fmt.Fprintln(out, "that hide inside the honest point cloud.")
	return nil
}
