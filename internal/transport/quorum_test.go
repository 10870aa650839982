package transport

import (
	"time"

	"repro/internal/tensor"
)

// wholeCollector builds the one-shard collector of a dim-coordinate
// deployment: whole-vector framing.
func wholeCollector(ep Endpoint, dim int) *Collector {
	return NewCollector(ep, NewShardLayout(dim, 0))
}

// collect gathers one (kind, step) quorum at a one-shard collector and
// returns it as messages, in arrival order — the whole-vector reading of
// Collect.
func collect(c *Collector, kind Kind, step, q int, timeout time.Duration) ([]Message, error) {
	var msgs []Message
	_, err := c.Collect(kind, step, q, nil, "", false,
		func(_, _ int, senders []string, inputs []tensor.Vector) error {
			for i, from := range senders {
				msgs = append(msgs, Message{From: from, Kind: kind, Step: step, Vec: inputs[i]})
			}
			return nil
		}, timeout)
	return msgs, err
}

// collectAny is the rejoin discovery as a caller drives it: find the step,
// then collect the quorum that is buffered for it.
func collectAny(c *Collector, kind Kind, minStep, q int, timeout time.Duration) ([]Message, int, error) {
	step, err := c.CollectAny(kind, minStep, q, timeout)
	if err != nil {
		return nil, 0, err
	}
	msgs, err := collect(c, kind, step, q, timeout)
	return msgs, step, err
}

// buffered returns how many distinct senders a one-shard collector holds
// for (kind, step).
func buffered(c *Collector, kind Kind, step int) int {
	b := c.buf[collectorKey{kind: kind, step: step}]
	if b == nil {
		return 0
	}
	return len(b.slots[0].msgs)
}
