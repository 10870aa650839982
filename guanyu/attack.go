package guanyu

import (
	"repro/internal/attack"
)

// Attack is a Byzantine behaviour: it intercepts every outbound vector of a
// compromised node and may corrupt it per receiver (equivocation) or
// suppress it (silence). The catalogue below is re-exported from the
// attack layer; AttackByName selects one from a flag or config string.
type Attack = attack.Attack

// ClusterView is the omniscient adversary's window onto the honest cluster
// at one step: the honest vectors of the message class the Byzantine node
// is about to corrupt, plus the population's declared bound and the number
// of colluders. The runtimes build it; attacks must treat it as read-only,
// and read it only while they craft (the Live runtime recycles its
// vectors): an attack that keeps a value longer copies it.
type ClusterView = attack.ClusterView

// Omniscient marks attacks that adapt to the honest cluster state: the
// colluders armed with one (comparable) value send one vector per message
// kind and step, which the runtimes have it Craft once from that step's
// ClusterView; Corrupt is its fallback while no honest vector is visible.
// The adversary is omniscient but not omnipotent — it reads every honest
// value, yet can only speak through the nodes it controls, and in the live
// runtimes its view fills in only as honest nodes actually produce values.
type Omniscient = attack.Omniscient

// RandomGaussian replaces the vector with fresh Gaussian noise per receiver.
type RandomGaussian = attack.RandomGaussian

// SignFlip negates and scales the honest vector — gradient ascent.
type SignFlip = attack.SignFlip

// ScaledNorm multiplies the honest vector by a huge factor.
type ScaledNorm = attack.ScaledNorm

// Zero sends the zero vector (a stalling attack).
type Zero = attack.Zero

// NaNInjection poisons the vector with NaNs.
type NaNInjection = attack.NaNInjection

// TwoFaced equivocates: honest vector to half the receivers, the inner
// attack's corruption to the rest.
type TwoFaced = attack.TwoFaced

// Silent never sends anything.
type Silent = attack.Silent

// Delayed responds only every Period steps.
type Delayed = attack.Delayed

// ALIE is "A Little Is Enough": the colluders deviate from the honest
// coordinate mean by a few honest standard deviations — inside the honest
// point cloud, yet persistently biasing the aggregate (omniscient).
type ALIE = attack.ALIE

// InnerProduct sends −ε times the honest mean, dragging the aggregate
// toward a negative inner product with the true gradient (omniscient).
type InnerProduct = attack.InnerProduct

// Mimic replays one fixed honest participant's vector, amplifying its
// sampling noise while never looking like an outlier (omniscient).
type Mimic = attack.Mimic

// AntiKrum pushes against the descent direction by the largest magnitude
// that the server's own Krum selection still accepts (omniscient).
type AntiKrum = attack.AntiKrum

// Equivocate sends a different corruption to every receiver, keyed
// deterministically on (step, receiver).
type Equivocate = attack.Equivocate

// StaleReplay replays the node's honest vector from Age steps ago.
type StaleReplay = attack.StaleReplay

// SlowDrift adds a bias growing linearly with the step count along one
// fixed direction — too small per message to filter, compounding over time.
type SlowDrift = attack.SlowDrift

// NewRandomGaussian builds a RandomGaussian attack with the given standard
// deviation and seed.
func NewRandomGaussian(std float64, seed uint64) *RandomGaussian {
	return attack.NewRandomGaussian(std, seed)
}

// AttackNames lists the behaviour names AttackByName accepts.
func AttackNames() []string { return attack.Names() }

// AttackByName returns a per-node factory for the named behaviour, so
// command-line flags and configs arm deployments without switch
// statements. The factory takes the node index, ensuring stateful attacks
// don't share generators. Specs accept parameters after a colon:
//
//	signflip               sign-flip at the default scale
//	alie:z=1.2             A-Little-Is-Enough with explicit z
//	stale:age=10           replay vectors 10 steps old
//
// See AttackNames for the registry contents.
func AttackByName(name string, seed uint64) (func(i int) Attack, error) {
	return attack.FromSpec(name, seed)
}
