package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/guanyu"
	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/gar"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// cost is what one operation takes when nothing else runs: wall time, and
// process CPU (which exceeds wall for kernels that fan out over the shared
// worker pool). Budgets multiply counts by cpu; the *_us / *_ms metrics
// report wall.
type cost struct{ wall, cpu time.Duration }

func (c cost) per(n int) cost {
	return cost{c.wall / time.Duration(n), c.cpu / time.Duration(n)}
}

// timeOp runs f once to warm up, then repeatedly for at least minTime and at
// least three times, and returns the mean cost of one call.
func timeOp(minTime time.Duration, f func() error) (cost, error) {
	if err := f(); err != nil {
		return cost{}, err
	}
	n, start, cpu0 := 0, time.Now(), cpuTime()
	for n < 3 || time.Since(start) < minTime {
		if err := f(); err != nil {
			return cost{}, err
		}
		n++
	}
	return cost{time.Since(start), cpuTime() - cpu0}.per(n), nil
}

// unitCosts are the layers' costs timed in isolation on one workload's own
// shapes: its dimension, its frame layout, its codec, its batch.
type unitCosts struct {
	framesPerVector int

	encode, decode, validate cost // per frame
	compEncode, compDecode   cost // per frame; zero without compression
	compRatio                float64
	loopback                 cost // per frame, TCPNode Send → peer Recv
	loopbackMBps             float64

	multikrum, median, mean cost // per aggregation, on q̄ / q / q̄ inputs
	gradient                cost // one nn.BatchGradient
	checkpoint              cost // one Checkpoint.WriteFile
}

func randomVectors(rng *tensor.RNG, n, dim int) []tensor.Vector {
	out := make([]tensor.Vector, n)
	for i := range out {
		out[i] = rng.NormVec(make([]float64, dim), 0, 1)
	}
	return out
}

// aggregateOp returns the call the workload makes on rule: the shard-streamed
// fold when it ships shards, the whole-vector Aggregate otherwise.
func aggregateOp(rule gar.Rule, inputs []tensor.Vector, shard int) func() error {
	dim := len(inputs[0])
	sr, streams := rule.(gar.StreamingRule)
	if shard <= 0 || shard >= dim || !streams {
		return func() error {
			_, err := rule.Aggregate(inputs)
			return err
		}
	}
	part := make([]tensor.Vector, len(inputs))
	return func() error {
		st := sr.NewStreamer(dim)
		for lo := 0; lo < dim; lo += shard {
			hi := min(lo+shard, dim)
			for k, v := range inputs {
				part[k] = v[lo:hi]
			}
			if err := st.Fold(lo, hi, append([]tensor.Vector(nil), part...)); err != nil {
				return err
			}
		}
		_, err := st.Result()
		return err
	}
}

// measureUnits times every unit cost for workload s, sampling each for
// unitMinTime. The simulator touches no wire, so its transport, codec and
// checkpoint costs stay zero. scratchDir receives the checkpoint files and is
// removed afterwards.
func measureUnits(s spec, w guanyu.Workload, seed uint64, unitMinTime time.Duration, scratchDir string) (*unitCosts, error) {
	dim := w.Model.ParamCount()
	rng := tensor.NewRNG(seed + 99)
	u := &unitCosts{}
	var err error
	if !s.sim {
		if err = u.measureWire(s, rng.NormVec(make([]float64, dim), 0, 1), unitMinTime, scratchDir); err != nil {
			return nil, err
		}
	}

	grads := randomVectors(rng, quorumGrads, dim)
	if u.multikrum, err = timeOp(unitMinTime, aggregateOp(gar.MultiKrum{F: fWorkers}, grads, s.shard)); err != nil {
		return nil, fmt.Errorf("multi-krum: %w", err)
	}
	if u.median, err = timeOp(unitMinTime, aggregateOp(gar.Median{}, grads[:quorumParams], s.shard)); err != nil {
		return nil, fmt.Errorf("median: %w", err)
	}
	if u.mean, err = timeOp(unitMinTime, aggregateOp(gar.Mean{}, grads, s.shard)); err != nil {
		return nil, fmt.Errorf("mean: %w", err)
	}

	model := w.Model.Clone()
	xs, labels := dataset.NewSampler(w.Train, rng.Split()).Batch(s.batch)
	u.gradient, err = timeOp(unitMinTime, func() error {
		nn.BatchGradient(model, xs, labels)
		return nil
	})
	return u, err
}

// measureWire times what one logical vector vec costs on its way between two
// nodes — codec, framing, validation, sockets — as the frames workload s puts
// on the wire, and what persisting it costs.
func (u *unitCosts) measureWire(s spec, vec []float64, unitMinTime time.Duration, scratchDir string) error {
	comp, err := compress.ParseSpec(s.compression)
	if err != nil {
		return err
	}
	whole := transport.Message{From: "u0", Kind: transport.KindGradient, Step: 1, Vec: vec}
	frames := []transport.Message{whole}
	if s.shard > 0 {
		frames = transport.SplitMessage(whole, s.shard)
	}
	n := len(frames)
	u.framesPerVector = n

	wireForm := append([]transport.Message(nil), frames...)
	if comp.Enabled() {
		enc, dec := compress.NewEncoder(comp), compress.NewDecoder()
		var buf []byte
		c, err := timeOp(unitMinTime, func() error {
			for _, f := range frames {
				out, err := enc.Encode(buf[:0], uint8(f.Kind), int64(f.Step), f.Shard.Offset, f.Vec)
				if err != nil {
					return err
				}
				buf = out
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("compress encode: %w", err)
		}
		u.compEncode = c.per(n)
		raw, packed := 0, 0
		for i := range wireForm {
			raw += 8 * len(wireForm[i].Vec)
			if err := transport.CompressMessage(enc, &wireForm[i]); err != nil {
				return err
			}
			packed += len(wireForm[i].Comp.Data)
		}
		u.compRatio = float64(raw) / float64(packed)
		var out []float64
		c, err = timeOp(unitMinTime, func() error {
			for _, f := range wireForm {
				v, err := dec.Decode(compress.Scheme(f.Comp.Scheme), uint8(f.Kind), int64(f.Step),
					f.Shard.Offset, f.Comp.Dim, f.Comp.Data, out[:0])
				if err != nil {
					return err
				}
				out = v
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("compress decode: %w", err)
		}
		u.compDecode = c.per(n)
	}

	var wire []byte
	c, err := timeOp(unitMinTime, func() error {
		wire = wire[:0]
		for i := range wireForm {
			out, err := transport.AppendMessage(wire, &wireForm[i])
			if err != nil {
				return err
			}
			wire = out
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	u.encode = c.per(n)

	var scratch []byte
	var msg transport.Message
	c, err = timeOp(unitMinTime, func() error {
		r := bytes.NewReader(wire)
		for range wireForm {
			if err := transport.ReadMessage(r, &scratch, &msg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	u.decode = c.per(n)

	c, err = timeOp(unitMinTime, func() error {
		for _, f := range frames {
			if !tensor.IsFinite(f.Vec) {
				return fmt.Errorf("generated frame is not finite")
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	u.validate = c.per(n)

	if u.loopback, err = loopbackCost(frames, comp, len(vec), unitMinTime); err != nil {
		return fmt.Errorf("loopback: %w", err)
	}
	u.loopbackMBps = 8 * float64(len(vec)) / float64(n) / 1e6 / u.loopback.wall.Seconds()

	defer os.RemoveAll(scratchDir)
	ckpt := cluster.Checkpoint{ID: "ps0", Step: 1, Theta: vec}
	if u.checkpoint, err = timeOp(unitMinTime, func() error { return ckpt.WriteFile(scratchDir) }); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// loopbackBatch is how many logical vectors one loopback operation keeps in
// flight: in a saturated deployment a read loop finds its next frame waiting,
// and a ping-pong of single frames would price a goroutine wake-up into each.
const loopbackBatch = 16

// loopbackCost sends loopbackBatch logical vectors' frames from one TCPNode
// to another and receives them all, configured like the workload's honest
// nodes; the result is per frame.
func loopbackCost(frames []transport.Message, comp compress.Config, dim int, unitMinTime time.Duration) (cost, error) {
	a, err := transport.ListenTCP("a", "127.0.0.1:0", nil)
	if err != nil {
		return cost{}, err
	}
	defer a.Close()
	b, err := transport.ListenTCP("b", "127.0.0.1:0", nil)
	if err != nil {
		return cost{}, err
	}
	defer b.Close()
	if comp.Enabled() {
		for _, node := range []*transport.TCPNode{a, b} {
			if err := node.SetCompression(comp, dim); err != nil {
				return cost{}, err
			}
		}
	}
	if err := a.AddPeer("b", b.Addr()); err != nil {
		return cost{}, err
	}
	c, err := timeOp(unitMinTime, func() error {
		for i := 0; i < loopbackBatch; i++ {
			for _, f := range frames {
				if err := a.Send("b", f); err != nil {
					return err
				}
			}
		}
		for i := 0; i < loopbackBatch*len(frames); i++ {
			if _, ok := b.Recv(5 * time.Second); !ok {
				return fmt.Errorf("frame lost on loopback")
			}
		}
		return nil
	})
	return c.per(loopbackBatch * len(frames)), err
}
