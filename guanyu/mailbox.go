package guanyu

import "repro/internal/transport"

// MailboxConfig bounds a node's inbound mailbox per sender; the zero value
// is the unbounded mailbox of the pure asynchronous model. See
// WithMailboxSpec and transport.MailboxConfig.
type MailboxConfig = transport.MailboxConfig

// ParseMailbox parses a -mailbox flag spec: "none" (unbounded, default) or
// "policy[:cap=N]" with policy ∈ {backpressure, drop-newest, drop-oldest}
// and the cap defaulting to transport.DefaultMailboxCap.
func ParseMailbox(spec string) (MailboxConfig, error) {
	return transport.ParseMailboxSpec(spec)
}

// WithMailboxSpec bounds every node's inbound mailbox per sender, in the
// flag syntax accepted by ParseMailbox ("none" | "policy[:cap=N]"), and
// routes every honest node's sends through per-link courier goroutines
// with equally bounded outboxes. A fast or Byzantine peer can then occupy
// at most cap frames at each receiver, making a node's worst-case
// buffering O(n·cap) regardless of traffic rates — the actor runtime
// described in DESIGN.md. Overflow-free schedules are byte-for-byte
// unaffected by the bound. A bounded spec is Live-only: the simulator's
// virtual time admits no overflow to bound.
func WithMailboxSpec(spec string) Option {
	return func(d *Deployment) error {
		cfg, err := ParseMailbox(spec)
		if err != nil {
			return err
		}
		d.mailbox = cfg
		return nil
	}
}
