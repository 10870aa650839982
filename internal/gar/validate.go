package gar

import (
	"fmt"
	"iter"
)

// The theoretical preconditions of GuanYu (Section 3.2 of the paper). This
// file and the registry's MinInputs entries are their one statement; every
// runtime, the façade and DESIGN.md enforce or quote exactly these bounds:
//
//	n  ≥ 3f+3    parameter servers, f Byzantine
//	n̄  ≥ 3f̄+3    workers, f̄ Byzantine
//	2f+3 ≤ q ≤ n−f      quorum for the coordinate-wise median M
//	2f̄+3 ≤ q̄ ≤ n̄−f̄      quorum for Multi-Krum F
//
// Per-rule input bounds (n ≥ 2f+3 for multi-krum, n ≥ 2f+1 for
// trimmed-mean, n ≥ 4f+3 for bulyan, n ≥ f+1 for mda) are enforced by the
// registry's MinInputs entries. CheckRole is the one legality function:
// core.Config, cluster.LiveConfig and guanyu.RunNode call it per role, and
// guanyu.New reaches it through the runtime config it builds.

// CheckRole checks one role — population n, declared Byzantine count f,
// quorum q (≤ 0 means the 2f+3 default), the distinct attacked indices
// (nil: none) — against the legality section: f ≥ 0, n ≥ 3f+3,
// 2f+3 ≤ q ≤ n−f, every attacked index in [0, n), an honest node left.
func CheckRole(role string, n, f, q int, byzantine iter.Seq[int]) error {
	if err := CheckDeployment(role, n, f); err != nil {
		return err
	}
	if q <= 0 {
		q = MinQuorum(f)
	}
	if err := CheckQuorum(role, n, f, q); err != nil {
		return err
	}
	attacked := 0
	if byzantine != nil {
		for i := range byzantine {
			if i < 0 || i >= n {
				return fmt.Errorf("gar: %s attack index %d outside population [0, %d)", role, i, n)
			}
			attacked++
		}
	}
	if attacked >= n {
		return fmt.Errorf("gar: every %s is Byzantine; nothing to measure", role)
	}
	return nil
}

// CheckDeployment verifies the population bound n ≥ 3f+3 for one node role.
func CheckDeployment(role string, n, f int) error {
	if f < 0 {
		return fmt.Errorf("gar: negative Byzantine count f=%d for %s", f, role)
	}
	if n < MinPopulation(f) {
		return fmt.Errorf("gar: %s population n=%d violates n ≥ 3f+3 with f=%d",
			role, n, f)
	}
	return nil
}

// CheckQuorum verifies 2f+3 ≤ q ≤ n−f for one node role.
func CheckQuorum(role string, n, f, q int) error {
	if q < MinQuorum(f) {
		return fmt.Errorf("gar: %s quorum q=%d violates q ≥ 2f+3 with f=%d",
			role, q, f)
	}
	if q > MaxQuorum(n, f) {
		return fmt.Errorf("gar: %s quorum q=%d violates q ≤ n−f with n=%d f=%d",
			role, q, n, f)
	}
	return nil
}

// MinQuorum returns the smallest legal quorum 2f+3 for the given f.
func MinQuorum(f int) int { return 2*f + 3 }

// MaxQuorum returns the largest legal quorum n−f.
func MaxQuorum(n, f int) int { return n - f }

// MinPopulation returns the smallest legal population 3f+3 for the given f.
func MinPopulation(f int) int { return 3*f + 3 }
