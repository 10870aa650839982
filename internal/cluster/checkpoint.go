package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/gar"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Crash recovery. A parameter server's entire
// protocol-relevant state is (step, θ, momentum velocity, collector
// horizon): everything else — collector buffers, compression stream
// state — is per-connection and rebuilt from live traffic after a
// restart: the restarted node starts with fresh codecs (a TCP redial, or a
// fresh transport.Compressor in process), and peers' delta streams to it
// heal at their next keyframe. The Checkpoint codec below
// serialises that state with bit-exact float round-tripping, the
// persistence helpers write it atomically so a crash mid-write can never
// leave a half-checkpoint behind, and RejoinMedian lets a restarted
// server catch up to the live cluster by adopting the coordinate-wise
// median of a quorum of peers' contraction-round broadcasts — the same
// aggregation the paper's phase 3 applies every step, so the adopted
// state is within the contraction bound of the honest servers' states
// whenever at most f of the q sampled peers are Byzantine. The deployment's
// membership is fixed, as in the paper: a restarted server comes back under
// the same ID, and the peers it samples are the ones its config names (the
// collector's Senders table, which the discovery phase shares with the
// loop).

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
	// A ServerConfig with Every ≤ 0 writes nothing; a deployment's spec
	// must pass Validate.
	Every int
}

// Validate refuses a spec without a directory or a positive cadence, for
// guanyu.WithCheckpointDir, LiveConfig and guanyu.NodeConfig alike.
func (s CheckpointSpec) Validate() error {
	if s.Dir == "" {
		return fmt.Errorf("cluster: checkpoint directory is empty")
	}
	if s.Every < 1 {
		return fmt.Errorf("cluster: checkpoint cadence must be ≥ 1 step, got %d", s.Every)
	}
	return nil
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
