package attack

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The registry maps stable behaviour names to factories so command-line
// flags, configs and the scenario-matrix experiment arm deployments by
// string. A spec is a name with optional parameters:
//
//	signflip              — defaults
//	alie:z=1.2            — one override
//	stale:age=10          — integer-valued parameters parse from floats
//
// Factories take the Byzantine node's index so stateful attacks never
// share generators or history across nodes. The omniscient attacks are
// built as values, so the colluders armed from one spec compare equal and
// craft once (see Omniscient).

// spec describes one registered behaviour family.
type spec struct {
	// defaults lists the accepted parameter keys with their default
	// values; parsing rejects unknown keys.
	defaults map[string]float64
	// build constructs the attack for node index i from the merged
	// parameters.
	build func(p map[string]float64, seed uint64, i int) Attack
}

var registry = map[string]spec{
	"random": {
		defaults: map[string]float64{"std": 100},
		build: func(p map[string]float64, seed uint64, i int) Attack {
			return NewRandomGaussian(p["std"], seed+uint64(i))
		},
	},
	"signflip": {
		defaults: map[string]float64{"scale": 2},
		build: func(p map[string]float64, _ uint64, _ int) Attack {
			return SignFlip{Scale: p["scale"]}
		},
	},
	"scaled": {
		defaults: map[string]float64{"factor": 1e6},
		build: func(p map[string]float64, _ uint64, _ int) Attack {
			return ScaledNorm{Factor: p["factor"]}
		},
	},
	"zero": {
		build: func(map[string]float64, uint64, int) Attack { return Zero{} },
	},
	"nan": {
		build: func(map[string]float64, uint64, int) Attack { return NaNInjection{} },
	},
	"silent": {
		build: func(map[string]float64, uint64, int) Attack { return Silent{} },
	},
	"delayed": {
		defaults: map[string]float64{"period": 3},
		build: func(p map[string]float64, _ uint64, _ int) Attack {
			return Delayed{Period: int(p["period"])}
		},
	},
	"twofaced": {
		defaults: map[string]float64{"std": 100},
		build: func(p map[string]float64, seed uint64, i int) Attack {
			return TwoFaced{Inner: NewRandomGaussian(p["std"], seed+uint64(i))}
		},
	},
	"alie": {
		defaults: map[string]float64{"z": 0},
		build: func(p map[string]float64, _ uint64, _ int) Attack {
			return ALIE{Z: p["z"]}
		},
	},
	"ipm": {
		defaults: map[string]float64{"eps": 0.5},
		build: func(p map[string]float64, _ uint64, _ int) Attack {
			return InnerProduct{Eps: p["eps"]}
		},
	},
	"mimic": {
		defaults: map[string]float64{"victim": 0},
		build: func(p map[string]float64, _ uint64, _ int) Attack {
			return Mimic{Victim: int(p["victim"])}
		},
	},
	"antikrum": {
		defaults: map[string]float64{"colluders": 0},
		build: func(p map[string]float64, _ uint64, _ int) Attack {
			return AntiKrum{Colluders: int(p["colluders"])}
		},
	},
	"equivocate": {
		defaults: map[string]float64{"std": 1},
		build: func(p map[string]float64, seed uint64, i int) Attack {
			return Equivocate{Std: p["std"], Seed: seed + uint64(i)}
		},
	},
	"stale": {
		defaults: map[string]float64{"age": 5},
		build: func(p map[string]float64, _ uint64, _ int) Attack {
			return &StaleReplay{Age: int(p["age"])}
		},
	},
	"drift": {
		defaults: map[string]float64{"delta": 0.01},
		build: func(p map[string]float64, seed uint64, i int) Attack {
			return &SlowDrift{Delta: p["delta"], Seed: seed + uint64(i)}
		},
	},
}

// Names lists every registered behaviour name, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FromSpec resolves a behaviour spec ("name" or "name:k=v,k=v") into a
// per-node factory. The factory takes the node index, ensuring stateful
// attacks do not share generators or history.
func FromSpec(specStr string, seed uint64) (func(i int) Attack, error) {
	name, params, err := ParseSpec(specStr)
	if err != nil {
		return nil, err
	}
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("attack: unknown attack %q (known: %v)", name, Names())
	}
	merged := make(map[string]float64, len(s.defaults))
	for k, v := range s.defaults {
		merged[k] = v
	}
	for k, v := range params {
		if _, ok := s.defaults[k]; !ok {
			keys := make([]string, 0, len(s.defaults))
			for dk := range s.defaults {
				keys = append(keys, dk)
			}
			sort.Strings(keys)
			return nil, fmt.Errorf("attack: %s: unknown parameter %q (accepted: %v)", name, k, keys)
		}
		merged[k] = v
	}
	return func(i int) Attack { return s.build(merged, seed, i) }, nil
}

// ParseSpec splits "name:k=v,k=v" into the behaviour name and its
// parameter overrides. The same syntax drives fault-profile specs (see
// transport.FaultFromSpec), so deployment flags stay uniform.
func ParseSpec(specStr string) (name string, params map[string]float64, err error) {
	name, rest, hasParams := strings.Cut(strings.TrimSpace(specStr), ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", nil, fmt.Errorf("attack: empty spec")
	}
	params = make(map[string]float64)
	if !hasParams {
		return name, params, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return "", nil, fmt.Errorf("attack: bad parameter %q in spec %q (want key=value)", kv, specStr)
		}
		x, perr := strconv.ParseFloat(v, 64)
		if perr != nil {
			return "", nil, fmt.Errorf("attack: parameter %s in spec %q: %v", k, specStr, perr)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return "", nil, fmt.Errorf("attack: parameter %s in spec %q is %v, want a finite number", k, specStr, x)
		}
		if _, dup := params[k]; dup {
			return "", nil, fmt.Errorf("attack: duplicate parameter %q in spec %q", k, specStr)
		}
		params[k] = x
	}
	return name, params, nil
}
