package gar

import (
	"fmt"
	"sort"
)

// The registry maps stable rule names to constructors so deployment
// builders, command-line flags and experiment tables select rules by string
// instead of switch statements: guanyu.WithRule and WithParamRule resolve
// their names here, and an unknown name is refused with the list of known
// ones.

// Spec describes one registered rule family.
type Spec struct {
	// New constructs the rule for a declared Byzantine count f. Rules that
	// ignore f (mean, median, geometric median) accept any value.
	New func(f int) Rule
	// MinInputs is the rule's input-cardinality precondition for declared
	// f: Aggregate needs at least this many inputs to uphold its
	// resilience guarantee.
	MinInputs func(f int) int
	// UsesF reports whether the rule's behaviour depends on f.
	UsesF bool
}

var registry = map[string]Spec{
	"mean": {
		New:       func(int) Rule { return Mean{} },
		MinInputs: func(int) int { return 1 },
	},
	"coordinate-median": {
		New:       func(int) Rule { return Median{} },
		MinInputs: func(int) int { return 1 },
	},
	"multi-krum": {
		New:       func(f int) Rule { return MultiKrum{F: f} },
		MinInputs: func(f int) int { return 2*f + 3 },
		UsesF:     true,
	},
	"trimmed-mean": {
		New:       func(f int) Rule { return TrimmedMean{F: f} },
		MinInputs: func(f int) int { return 2*f + 1 },
		UsesF:     true,
	},
	"bulyan": {
		New:       func(f int) Rule { return Bulyan{F: f} },
		MinInputs: func(f int) int { return 4*f + 3 },
		UsesF:     true,
	},
	"geometric-median": {
		New:       func(int) Rule { return GeoMed{} },
		MinInputs: func(int) int { return 1 },
	},
	"mda": {
		New:       func(f int) Rule { return MDA{F: f} },
		MinInputs: func(f int) int { return f + 1 },
		UsesF:     true,
	},
}

// LookupSpec returns the registered spec for name.
func LookupSpec(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("gar: unknown rule %q (known: %v)", name, RuleNames())
	}
	return s, nil
}

// FromName constructs the named rule for declared Byzantine count f.
func FromName(name string, f int) (Rule, error) {
	s, err := LookupSpec(name)
	if err != nil {
		return nil, err
	}
	if f < 0 {
		return nil, fmt.Errorf("gar: rule %q: negative f=%d", name, f)
	}
	return s.New(f), nil
}

// RuleNames lists every registered rule name, sorted.
func RuleNames() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
