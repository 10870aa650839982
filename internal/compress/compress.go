// Package compress implements lossy gradient/parameter compression for the
// wire: the payload codecs behind the transport's compressed frames and the
// simulator's lossy-channel model. Two schemes ship alongside a `none`
// passthrough:
//
//   - float32: truncate every coordinate to IEEE-754 single precision
//     (deterministic 2× payload reduction, ~1e-7 relative error);
//   - topk: per-range top-k sparsification as {index, value} pairs with
//     error-feedback accumulation at the sender (Stich et al.'s memory
//     trick: coordinates not sent are not lost, they are carried into the
//     next step's selection), ~1/k payload reduction.
//
// # Determinism and state ownership
//
// Every scheme is deterministic: the same vector sequence through the same
// Encoder yields the same bytes on any platform (top-k ties break toward
// the lower index; no randomness anywhere). An Encoder owns one DIRECTED
// LINK's state (one sender → one receiver): top-k error-feedback
// accumulators live per (kind, shard-offset) stream inside it, advanced only
// by Encode. It is not safe for concurrent use; give each connection its own
// and never share one across links — error feedback accumulated against one
// peer is meaningless (and wrong) replayed against another. Decoding keeps
// no state: every payload expands on its own, whatever arrived before it. Encode never mutates the input
// vector: compensation is applied to the encoder's internal accumulator,
// not to the caller's gradient.
//
// # Composition with chunked streaming
//
// Compression is decided per frame, so it composes with the transport's
// chunk streaming: each shard range [off, off+n) is an independent stream
// keyed by its offset, so one shard's error feedback never leaks into its
// neighbours'. Payload formats are specified
// byte-for-byte in WIRE.md §9; the codec here owns everything inside the
// compressed payload, the transport codec owns the frame around it.
package compress

import (
	"fmt"
	"strconv"
	"strings"
)

// Scheme identifies a compression codec on the wire (one byte in the
// compressed-frame extension; see WIRE.md §9).
type Scheme uint8

// Wire scheme identifiers. None never appears on the wire: an uncompressed
// payload ships as a plain (PR 5) frame, bit-identical to the
// pre-compression wire format.
const (
	None    Scheme = 0
	Float32 Scheme = 1
	// 2 is retired: unassigned, it decodes as unknown (WIRE.md §9).
	TopK Scheme = 3
)

// Known reports whether s is a scheme this build can decode. Unknown
// nonzero scheme bytes are legal frames (the codec treats the payload as
// opaque) that the receiving node drops as un-negotiated.
func (s Scheme) Known() bool { return s == Float32 || s == TopK }

// Bit returns s's capability bit for the hello-frame negotiation mask.
// Bit 0 is never set: plain frames need no capability.
func (s Scheme) Bit() uint8 { return 1 << s }

// Stateless reports whether s's payload bytes are a function of the vector
// alone — no per-link reference or error-feedback state — so that one
// encoding serves every link the vector is sent on. True for float32 only.
func (s Scheme) Stateless() bool { return s == Float32 }

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case None:
		return "none"
	case Float32:
		return "float32"
	case TopK:
		return "topk"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// Config selects a scheme and its parameters. The zero value is the `none`
// passthrough.
type Config struct {
	// Scheme is the codec.
	Scheme Scheme
	// TopKFrac is the fraction of coordinates kept per encoded range
	// (topk only), in (0, 1]. k = ceil(TopKFrac · n), at least 1.
	TopKFrac float64
}

// Enabled reports whether c compresses at all.
func (c Config) Enabled() bool { return c.Scheme != None }

// CapMask is the hello-frame capability bitmask announcing which schemes
// this sender may put on the connection.
func (c Config) CapMask() uint8 {
	if !c.Enabled() {
		return 0
	}
	return c.Scheme.Bit()
}

// Validate checks the parameters against their scheme.
func (c Config) Validate() error {
	switch c.Scheme {
	case None, Float32:
		return nil
	case TopK:
		if !(c.TopKFrac > 0 && c.TopKFrac <= 1) {
			return fmt.Errorf("compress: topk fraction %g outside (0, 1]", c.TopKFrac)
		}
		return nil
	default:
		return fmt.Errorf("compress: unknown scheme %d", c.Scheme)
	}
}

// String renders the canonical spec ParseSpec accepts.
func (c Config) String() string {
	if c.Scheme == TopK {
		return fmt.Sprintf("topk:k=%g", c.TopKFrac)
	}
	return c.Scheme.String()
}

// ParseSpec parses a compression spec in the registry syntax used
// throughout the repo ("name" or "name:key=value,..."): "none" (or ""),
// "float32", "topk:k=0.01".
func ParseSpec(spec string) (Config, error) {
	name, rest, hasParams := strings.Cut(strings.TrimSpace(spec), ":")
	name = strings.TrimSpace(name)
	params := make(map[string]float64)
	if hasParams {
		for _, kv := range strings.Split(rest, ",") {
			if kv = strings.TrimSpace(kv); kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			if !ok || k == "" || v == "" {
				return Config{}, fmt.Errorf("compress: bad parameter %q in spec %q (want key=value)", kv, spec)
			}
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return Config{}, fmt.Errorf("compress: parameter %s in spec %q: %v", k, spec, err)
			}
			if _, dup := params[k]; dup {
				return Config{}, fmt.Errorf("compress: duplicate parameter %q in spec %q", k, spec)
			}
			params[k] = x
		}
	}
	take := func(key string, def float64) float64 {
		if v, ok := params[key]; ok {
			delete(params, key)
			return v
		}
		return def
	}
	var cfg Config
	switch name {
	case "", "none":
		cfg = Config{}
	case "float32", "f32":
		cfg = Config{Scheme: Float32}
	case "topk":
		cfg = Config{Scheme: TopK, TopKFrac: take("k", 0.01)}
	default:
		return Config{}, fmt.Errorf("compress: unknown scheme %q (want none, float32 or topk)", name)
	}
	for k := range params {
		return Config{}, fmt.Errorf("compress: scheme %q does not take parameter %q", name, k)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// TopKCount is the number of {index, value} pairs the topk scheme keeps
// for an n-coordinate range: ceil(frac·n), clamped to [1, n].
func TopKCount(frac float64, n int) int {
	if n <= 0 {
		return 0
	}
	k := int(frac * float64(n))
	if float64(k) < frac*float64(n) {
		k++
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// PayloadBytes is the steady-state encoded payload size for an
// n-coordinate range under c — the number the bandwidth experiment and the
// simulator's cost model use (`none` counts the raw 8-byte coordinates).
func (c Config) PayloadBytes(n int) int {
	switch c.Scheme {
	case Float32:
		return 4 * n
	case TopK:
		return topkHeaderSize + topkEntrySize*TopKCount(c.TopKFrac, n)
	default:
		return 8 * n
	}
}
