// Package attack implements the Byzantine behaviours evaluated in the paper
// (Section 5.1/5.4) and the stronger adversary engine grown around them:
// corrupted gradients and parameter vectors, different replies to different
// participants (two-faced / equivocation), silence, state-of-the-art
// omniscient attacks (ALIE, inner-product manipulation, mimic, anti-Krum),
// and Byzantine-server behaviours (stale replay, slow drift).
//
// # Adversary model and contract
//
// The adversary in the model is omniscient (it may read every honest value)
// but not omnipotent (it can only speak through the nodes it controls);
// accordingly, every Attack receives the honest vector the node would have
// sent and returns an arbitrary replacement — nil means silence toward that
// receiver. Implementations must be safe for concurrent use: a Byzantine
// node broadcasts to many receivers at once.
//
// Omniscience is mediated by ClusterView/SharedView: honest nodes publish
// their per-step vectors into a shared view, Byzantine nodes craft from it
// before corrupting. The deterministic simulator feeds complete per-step
// honest sets (the strongest adversary); the live runtimes publish
// concurrently, so a view may be partial — omniscient, not clairvoyant.
// An honest live server publishes θ once per step, in phase 1, so what a
// Byzantine server crafts from before the phase-3 contraction round shows
// the pre-update θ, where the simulator shows the updated one.
// The omniscient attacks are stateless values that write one vector per
// view (Omniscient.Craft), and the run owns what they write: Crafts crafts
// each distinct attack at most once per message kind and step, into one
// free-list vector every colluder of that kind sends. The simulator hands
// it back once a round's receivers have aggregated; a SharedView keeps it
// with the step's honest copies and hands both back once every colluder
// has passed the step (SharedView.Pass), or at Close for a step some
// colluder never passed.
// Multi-process deployments run without a view (an adversary spanning OS
// processes would need its own covert channel), in which case omniscient
// attacks degrade to their documented local-knowledge fallbacks.
//
// # Registry
//
// Every attack is constructible by name with parameter overrides
// ("alie:z=1.2" — see ParseSpec and FromSpec); the registry backs
// guanyu.AttackByName, the -attack/-byzantine flags on the commands, and
// the scenario-matrix experiment's grid axis. Stateful attacks are built
// once per node so generators are never shared; the omniscient ones are
// values, equal across the colluders of one spec.
package attack
