// Package transport reproduces, in miniature, the historical bug
// shapes the lint suite was built to catch: the un-cloned send (the
// PR 2/3/7 races) and quorum order following Go's randomized map
// iteration (the PR 4 aggregation bug).
package transport

// Message mimics the wire message; the analyzers match it by package
// and type name.
type Message struct {
	From string
	Step int
	Vec  []float64
}

// Clone returns a deep copy whose Vec shares nothing with m.
func (m Message) Clone() Message {
	out := m
	out.Vec = append([]float64(nil), m.Vec...)
	return out
}

// Collector buffers one step's messages by sender.
type Collector struct {
	byPeer map[string]Message
}

// Broadcast fans a buffered message out to every peer without cloning
// — each receiver's Vec aliases the one buffer the collector keeps
// mutating in place.
func (c *Collector) Broadcast(from string, outs []chan Message) {
	held := c.byPeer[from]
	for _, ch := range outs {
		ch <- held // want "sent on a channel without Clone"
	}
}

// Quorum returns the first q buffered messages in map-iteration order
// — the aggregate's input order changes run to run.
func (c *Collector) Quorum(q int) []Message {
	var out []Message
	for _, m := range c.byPeer {
		out = append(out, m) // want "inside a map range"
	}
	if len(out) > q {
		out = out[:q]
	}
	return out
}
