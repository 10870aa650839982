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
// their per-step vectors into a shared view, Byzantine nodes snapshot it
// before corrupting. The deterministic simulator feeds complete per-step
// honest sets (the strongest adversary); the live runtimes publish
// concurrently, so snapshots may be partial — omniscient, not clairvoyant.
// An honest live server publishes θ once per step, in phase 1, so the
// snapshot a Byzantine server takes before the phase-3 contraction round
// shows the pre-update θ, where the simulator shows the updated one.
// A view's vectors are valid until the attack's next Observe: the live
// runtimes copy honest vectors into tensor free-list memory, and at the end
// of a run the launcher hands every attack an empty view and then returns
// the copies still in the window (SharedView.Close), so an attack that
// keeps a value past that copies it. Observe adopts the
// view it is given, whatever its step: a second run of the same attack
// instances starts from its own first view. The lending runs the other way
// too: the omniscient attacks craft into one free-list vector, lend it to
// every receiver of the view and hand it back at the next Observe, so an
// instance serves one node — both runtimes refuse one armed at two node
// indices (CheckInstances).
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
// once per node so generators are never shared.
package attack
