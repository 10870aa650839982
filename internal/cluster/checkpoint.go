package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/gar"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Crash-recovery and elastic membership. A parameter server's entire
// protocol-relevant state is (step, θ, momentum velocity, collector
// horizon): everything else — collector buffers, compression stream
// state — is per-connection and rebuilt from live traffic after a
// restart (TCP redials reset both ends' codec streams; in-process
// deployments call Compressor.Reset). The Checkpoint codec below
// serialises that state with bit-exact float round-tripping, the
// persistence helpers write it atomically so a crash mid-write can never
// leave a half-checkpoint behind, and RejoinMedian lets a restarted
// server catch up to the live cluster by adopting the coordinate-wise
// median of a quorum of peers' contraction-round broadcasts — the same
// aggregation the paper's phase 3 applies every step, so the adopted
// state is within the contraction bound of the honest servers' states
// whenever at most f of the q sampled peers are Byzantine.
//
// The Roster type is the membership side: a step-indexed sequence of
// member sets, changed only at step boundaries by join/leave/replace
// announcements (hello v3 frames, see transport/codec.go and WIRE.md §10).
// Collectors consult Roster.Allows so quorum math is always evaluated
// against the roster in force at the step a frame claims, and the TCP
// admission gate consults Roster.AdmitHello so a departed node cannot
// even re-establish a connection.

// checkpointMagic brands every checkpoint file; a decoder rejects
// anything else before reading a single length field.
const checkpointMagic = "GYCK"

// checkpointVersion is the current format version. Decoders reject other
// versions outright — checkpoint files are node-local scratch state, not
// an interchange format, so there is no cross-version migration path.
const checkpointVersion = 1

// checkpoint format flag bits.
const ckptFlagVelocity = 1 << 0 // a momentum velocity vector follows θ

// Checkpoint is one server's resumable state after completing Step.
type Checkpoint struct {
	// ID is the node the checkpoint belongs to; restores refuse a
	// mismatched ID so two servers sharing a directory cannot adopt each
	// other's state.
	ID string
	// Step is the last fully completed protocol step; a restore resumes
	// at Step+1.
	Step int
	// Theta is the parameter vector θ after Step's update (and, when the
	// exchange ran, contraction).
	Theta tensor.Vector
	// Velocity is the heavy-ball momentum accumulator, nil when the run
	// uses plain SGD.
	Velocity tensor.Vector
	// Horizon is the collector's future-step buffering bound in force
	// when the checkpoint was taken (0 means transport.DefaultHorizon),
	// restored so a resumed node buffers exactly as widely as before.
	Horizon int
}

// EncodeCheckpoint serialises c. Floats are stored as raw little-endian
// IEEE-754 bits, so NaN and ±Inf coordinates round-trip bit-exactly; the
// trailing CRC-32 catches torn or corrupted files before any coordinate
// reaches arithmetic.
func EncodeCheckpoint(c Checkpoint) ([]byte, error) {
	if c.ID == "" || len(c.ID) > transport.MaxFromLen {
		return nil, fmt.Errorf("cluster: checkpoint ID length %d outside [1,%d]", len(c.ID), transport.MaxFromLen)
	}
	if c.Step < 0 {
		return nil, fmt.Errorf("cluster: negative checkpoint step %d", c.Step)
	}
	if c.Horizon < 0 {
		return nil, fmt.Errorf("cluster: negative checkpoint horizon %d", c.Horizon)
	}
	if len(c.Theta) == 0 || len(c.Theta) > transport.MaxVecLen {
		return nil, fmt.Errorf("cluster: checkpoint dimension %d outside [1,%d]", len(c.Theta), transport.MaxVecLen)
	}
	if c.Velocity != nil && len(c.Velocity) != len(c.Theta) {
		return nil, fmt.Errorf("cluster: velocity dimension %d != θ dimension %d", len(c.Velocity), len(c.Theta))
	}
	var flags uint8
	if c.Velocity != nil {
		flags |= ckptFlagVelocity
	}
	size := 4 + 2 + 1 + 1 + len(c.ID) + 8 + 4 + 4 + 8*len(c.Theta) + 8*len(c.Velocity) + 4
	buf := make([]byte, 0, size)
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, checkpointVersion)
	buf = append(buf, flags, uint8(len(c.ID)))
	buf = append(buf, c.ID...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Step))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Horizon))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Theta)))
	buf = tensor.AppendLE(buf, c.Theta)
	buf = tensor.AppendLE(buf, c.Velocity)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// DecodeCheckpoint parses an encoded checkpoint. Every length is bounded
// and the expected total size is computed and compared before any
// dimension-sized allocation, so a truncated, oversized or corrupted file
// is rejected without allocating what its header claims.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	var c Checkpoint
	// Fixed prefix through the ID length byte.
	if len(data) < 4+2+1+1 {
		return c, fmt.Errorf("cluster: checkpoint truncated at %d bytes", len(data))
	}
	if string(data[:4]) != checkpointMagic {
		return c, fmt.Errorf("cluster: bad checkpoint magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != checkpointVersion {
		return c, fmt.Errorf("cluster: unsupported checkpoint version %d (want %d)", v, checkpointVersion)
	}
	flags := data[6]
	if flags&^uint8(ckptFlagVelocity) != 0 {
		return c, fmt.Errorf("cluster: unknown checkpoint flags %#x", flags)
	}
	idLen := int(data[7])
	if idLen == 0 {
		return c, fmt.Errorf("cluster: empty checkpoint ID")
	}
	off := 8
	if len(data) < off+idLen+8+4+4 {
		return c, fmt.Errorf("cluster: checkpoint truncated at %d bytes", len(data))
	}
	c.ID = string(data[off : off+idLen])
	off += idLen
	step := binary.LittleEndian.Uint64(data[off : off+8])
	off += 8
	if step > math.MaxInt64/2 {
		return c, fmt.Errorf("cluster: absurd checkpoint step %d", step)
	}
	c.Step = int(step)
	c.Horizon = int(binary.LittleEndian.Uint32(data[off : off+4]))
	off += 4
	dim := int(binary.LittleEndian.Uint32(data[off : off+4]))
	off += 4
	if dim == 0 || dim > transport.MaxVecLen {
		return c, fmt.Errorf("cluster: checkpoint dimension %d outside [1,%d]", dim, transport.MaxVecLen)
	}
	vecs := 1
	if flags&ckptFlagVelocity != 0 {
		vecs = 2
	}
	// Exact-size check before allocating dim coordinates: a file that is
	// one byte short or long is corrupt, not approximately right.
	if want := off + vecs*8*dim + 4; len(data) != want {
		return c, fmt.Errorf("cluster: checkpoint is %d bytes, format says %d", len(data), want)
	}
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(data[:len(data)-4]); got != sum {
		return c, fmt.Errorf("cluster: checkpoint checksum mismatch (stored %#x, computed %#x)", sum, got)
	}
	c.Theta = make(tensor.Vector, dim)
	tensor.DecodeLE(c.Theta, data[off:off+8*dim])
	if flags&ckptFlagVelocity != 0 {
		c.Velocity = make(tensor.Vector, dim)
		tensor.DecodeLE(c.Velocity, data[off+8*dim:off+16*dim])
	}
	return c, nil
}

// CheckpointPath returns the canonical file path for a node's checkpoint
// in dir. One file per node, overwritten in place (atomically) at every
// cadence — a restore always reads the newest complete state.
func CheckpointPath(dir, id string) string {
	return filepath.Join(dir, id+".ckpt")
}

// WriteFile persists c into dir (created if absent) with a
// write-to-temp, fsync, rename sequence: the visible file is always a
// complete checkpoint, never a torn one, because rename is atomic on
// POSIX filesystems and the data is durable before the rename makes it
// the current checkpoint.
func (c Checkpoint) WriteFile(dir string) error {
	data, err := EncodeCheckpoint(c)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cluster: checkpoint dir: %w", err)
	}
	final := CheckpointPath(dir, c.ID)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("cluster: checkpoint write: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cluster: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cluster: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: checkpoint rename: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates the node's checkpoint from dir,
// refusing one that belongs to a different node ID.
func LoadCheckpoint(dir, id string) (Checkpoint, error) {
	data, err := os.ReadFile(CheckpointPath(dir, id))
	if err != nil {
		return Checkpoint{}, fmt.Errorf("cluster: checkpoint read: %w", err)
	}
	c, err := DecodeCheckpoint(data)
	if err != nil {
		return Checkpoint{}, err
	}
	if c.ID != id {
		return Checkpoint{}, fmt.Errorf("cluster: checkpoint belongs to %q, not %q", c.ID, id)
	}
	return c, nil
}

// CheckpointSpec configures periodic checkpointing on a server.
type CheckpointSpec struct {
	// Dir is the directory checkpoints are written into (one file per
	// node ID, atomically replaced).
	Dir string
	// Every is the cadence in steps: the server persists its state after
	// completing steps Every−1, 2·Every−1, … (i.e. every Every steps).
	// Values ≤ 0 disable periodic writes.
	Every int
}

// RejoinMedian is the restarted server's catch-up path: listen to the
// live contraction-round traffic (KindPeerParams) already flowing between
// the surviving servers, latch onto the first step ≥ minStep for which q
// distinct senders' vectors arrive, and adopt their coordinate-wise
// median. That is exactly the aggregation every server applies in phase 3,
// so with at most f Byzantine among the q sampled peers the adopted θ is
// within the contraction bound of the honest servers' states — the
// rejoiner re-enters the protocol as a full participant, not as a straggler
// replaying from a stale checkpoint. Returns the adopted vector and the
// step it was sampled at (the rejoiner resumes at step+1).
//
// col must be the same collector the server loop will keep using:
// CollectAny buffers every frame at or above its floor, so traffic for the
// resumed step survives the discovery phase instead of being consumed and
// lost. On timeout (no step ever fills q) the error wraps
// transport.ErrQuorumTimeout and the caller falls back to resuming from
// the checkpoint alone.
func RejoinMedian(col *transport.Collector, minStep, q int, timeout time.Duration) (tensor.Vector, int, error) {
	if q <= 0 {
		return nil, 0, fmt.Errorf("cluster: rejoin needs a positive quorum, got %d", q)
	}
	step, err := col.CollectAny(transport.KindPeerParams, minStep, q, timeout)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: rejoin: %w", err)
	}
	// The quorum CollectAny found is buffered: this reduces it, exactly as
	// phase 3 would, without waiting.
	qm := &quorum{col: col, timeout: timeout}
	theta, err := qm.aggregate(transport.KindPeerParams, step, q, nil, "", gar.Median{}, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: rejoin: %w", err)
	}
	return theta, step, nil
}

// rosterEpoch is one contiguous step range's member set: in force from
// step (inclusive) until the next epoch's step.
type rosterEpoch struct {
	step    int
	members map[string]struct{}
}

// Roster is the step-indexed membership of a deployment: a sequence of
// epochs, each a member set in force from its effective step until the
// next change. Changes are announced ahead of their effective step
// (hello v3 join/leave/replace frames) and always land on step
// boundaries, so every honest node evaluates step t's quorum against the
// same member set regardless of when the announcement physically arrived.
//
// Safe for concurrent use: collectors call Allows from the node loop
// while the transport's admission callback calls AdmitHello/Apply from
// accept goroutines.
type Roster struct {
	mu     sync.RWMutex
	epochs []rosterEpoch // ascending by step; epochs[0].step == 0
}

// NewRoster builds a roster whose initial members are in force from step 0.
func NewRoster(members ...string) *Roster {
	set := make(map[string]struct{}, len(members))
	for _, id := range members {
		set[id] = struct{}{}
	}
	return &Roster{epochs: []rosterEpoch{{step: 0, members: set}}}
}

// epochAt returns the member set in force at step (callers hold r.mu).
func (r *Roster) epochAt(step int) map[string]struct{} {
	// Epochs are few (one per membership change); scan from the newest.
	for i := len(r.epochs) - 1; i >= 0; i-- {
		if r.epochs[i].step <= step {
			return r.epochs[i].members
		}
	}
	return r.epochs[0].members
}

// Allows reports whether id is a member of the roster in force at step —
// the Membership hook both collector types consume.
func (r *Roster) Allows(step int, id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.epochAt(step)[id]
	return ok
}

// Members returns the sorted member set in force at step.
func (r *Roster) Members(step int) []string {
	r.mu.RLock()
	set := r.epochAt(step)
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// AdmitHello is the connection-admission policy derived from the roster's
// LATEST epoch (the membership in force going forward — admission happens
// at handshake time, before any frame carries a step):
//
//   - member: the node must already be a member,
//   - join:   the node must NOT already be a member,
//   - leave:  only members may announce departures,
//   - replace: the replaced node must be a member and the replacement
//     must not.
//
// AdmitHello only checks; an accepted roster-changing hello takes effect
// when the caller passes it to Apply. Plug the pair into
// transport.TCPNode.SetAdmission:
//
//	node.SetAdmission(func(h transport.Hello) bool {
//	        if !roster.AdmitHello(h) { return false }
//	        if h.Intent != transport.IntentMember { _ = roster.Apply(h) }
//	        return true
//	})
func (r *Roster) AdmitHello(h transport.Hello) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	latest := r.epochs[len(r.epochs)-1].members
	_, isMember := latest[h.ID]
	switch h.Intent {
	case transport.IntentMember:
		return isMember
	case transport.IntentJoin:
		return !isMember
	case transport.IntentLeave:
		return isMember
	case transport.IntentReplace:
		_, replacedIsMember := latest[h.Replaces]
		return replacedIsMember && !isMember
	default:
		return false
	}
}

// Apply folds one roster-changing announcement into the roster, effective
// at h.EffectiveStep. The change must not predate the newest existing
// epoch (membership history is append-only; retroactive edits would let
// two nodes disagree about a past step's quorum). Announcements with
// IntentMember are no-ops. Idempotent: re-applying an announcement that
// already took effect (a rejoining node re-sends its hello on every
// redial) is accepted without growing the epoch list.
func (r *Roster) Apply(h transport.Hello) error {
	if err := h.Validate(); err != nil {
		return err
	}
	if h.Intent == transport.IntentMember {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	newest := &r.epochs[len(r.epochs)-1]
	base := newest.members
	_, isMember := base[h.ID]
	// Idempotency first: a change already reflected in the newest epoch is
	// accepted as a no-op even when its effective step is long past (the
	// re-announce path), BEFORE the append-only guard below can reject it.
	switch h.Intent {
	case transport.IntentJoin:
		if isMember {
			return nil
		}
	case transport.IntentLeave:
		if !isMember {
			return nil
		}
	case transport.IntentReplace:
		if _, replacedIsMember := base[h.Replaces]; isMember && !replacedIsMember {
			return nil
		}
	}
	if h.EffectiveStep < newest.step {
		return fmt.Errorf("cluster: roster change at step %d predates epoch at step %d", h.EffectiveStep, newest.step)
	}
	next := make(map[string]struct{}, len(base)+1)
	for id := range base {
		next[id] = struct{}{}
	}
	switch h.Intent {
	case transport.IntentJoin:
		next[h.ID] = struct{}{}
	case transport.IntentLeave:
		delete(next, h.ID)
	case transport.IntentReplace:
		if _, replacedIsMember := base[h.Replaces]; !replacedIsMember {
			return fmt.Errorf("cluster: replace of non-member %q", h.Replaces)
		}
		delete(next, h.Replaces)
		next[h.ID] = struct{}{}
	}
	if h.EffectiveStep == newest.step {
		newest.members = next // same boundary: amend the epoch in place
		return nil
	}
	r.epochs = append(r.epochs, rosterEpoch{step: h.EffectiveStep, members: next})
	return nil
}
