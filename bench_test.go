// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (see the experiment index in DESIGN.md), plus
// micro-benchmarks of the kernels on the paper's critical path.
//
// The macro benchmarks drive the public guanyu façade — the same API the
// commands and examples use. The kernel micro-benchmarks at the bottom
// reach into internal/ deliberately: they measure building blocks the
// façade does not (and should not) re-export.
//
// The macro benchmarks report domain metrics via b.ReportMetric (final
// accuracy, overhead percentages, drift ratios) so `go test -bench` output
// doubles as the measured column of EXPERIMENTS.md (see its "Measured
// column" section; the "Experiment index" section maps each benchmark to
// its experiment id and the paper's expected value).
//
// Some kernel micro-benchmarks are pinned with a suffix: Serial runs at
// parallelism 1, how a benchmark node runs its kernels, and the gradient
// and forward Parallel twins run at the machine's CPU count; the unsuffixed
// rows measure the ambient default. Parallelism never changes results (see
// guanyu.SetParallelism), only wall-clock.
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/guanyu"
	"repro/internal/attack"
	"repro/internal/compress"
	"repro/internal/gar"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// benchScale keeps each macro-benchmark iteration around a second on a
// single CPU. Use cmd/guanyu-bench -full for paper-leaning run lengths.
var benchScale = guanyu.ExperimentScale{Steps: 30, Batch: 8, SmallBatch: 4, Examples: 400, Seed: 42}

// ---------------------------------------------------------------------------
// Macro benchmarks: one per experiment id, through the public façade.
// ---------------------------------------------------------------------------

// BenchmarkTable1ModelBuild regenerates Table 1 (CNN architecture).
func BenchmarkTable1ModelBuild(b *testing.B) {
	var params int
	for i := 0; i < b.N; i++ {
		m := nn.NewCIFARNet(tensor.NewRNG(1))
		params = m.ParamCount()
	}
	b.ReportMetric(float64(params), "params")
}

// BenchmarkFig3aConvergencePerUpdate regenerates Figure 3(a)/(c): the five
// systems' accuracy per model update.
func BenchmarkFig3aConvergencePerUpdate(b *testing.B) {
	var final float64
	for i := 0; i < b.N; i++ {
		r, err := guanyu.Fig3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		final = r.LargeBatch[len(r.LargeBatch)-1].FinalAccuracy()
	}
	b.ReportMetric(final, "final-acc")
}

// BenchmarkFig3bConvergencePerTime regenerates Figure 3(b)/(d): the same
// systems against the virtual-time axis; the reported metric is the ratio of
// GuanYu(5,1) virtual time to vanilla TF virtual time for the same steps.
func BenchmarkFig3bConvergencePerTime(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := guanyu.Fig3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		curves := r.LargeBatch
		tTF := curves[0].Points[len(curves[0].Points)-1].Time
		tGY := curves[4].Points[len(curves[4].Points)-1].Time
		ratio = tGY / tTF
	}
	b.ReportMetric(ratio, "time-ratio")
}

// BenchmarkFig4ByzantineImpact regenerates Figure 4; the metric is the
// accuracy gap between GuanYu-under-attack and vanilla-under-attack.
func BenchmarkFig4ByzantineImpact(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r, err := guanyu.Fig4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		gap = r.GuanYuByzantine.FinalAccuracy() - r.VanillaByzantine.FinalAccuracy()
	}
	b.ReportMetric(gap, "acc-gap")
}

// BenchmarkTable2Alignment regenerates Table 2; the metric is the mean
// cos φ over the recorded probes (paper: ≈ 0.98–0.99).
func BenchmarkTable2Alignment(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		recs, err := guanyu.Table2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) == 0 {
			b.Fatal("no alignment records")
		}
		var s float64
		for _, r := range recs {
			s += r.CosPhi
		}
		mean = s / float64(len(recs))
	}
	b.ReportMetric(mean, "mean-cos-phi")
}

// BenchmarkOverheadBreakdown regenerates the Section-5.3 numbers.
func BenchmarkOverheadBreakdown(b *testing.B) {
	var runtimePct, byzPct float64
	for i := 0; i < b.N; i++ {
		r, err := guanyu.Overhead(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		runtimePct, byzPct = r.RuntimeOverheadPct, r.ByzantineOverheadPct
	}
	b.ReportMetric(runtimePct, "runtime-overhead-%")
	b.ReportMetric(byzPct, "byz-overhead-%")
}

// BenchmarkContraction is the phase-3 ablation; metric: drift ratio
// (no-exchange / exchange).
func BenchmarkContraction(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := guanyu.Contraction(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.DriftWithout / r.DriftWith
	}
	b.ReportMetric(ratio, "drift-ratio")
}

// BenchmarkQuorumSweep is the declared-f̄ trade-off sweep; metric: throughput
// loss factor between f̄=0 and f̄=5.
func BenchmarkQuorumSweep(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		rows, err := guanyu.QuorumSweep(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		factor = rows[0].Throughput / rows[len(rows)-1].Throughput
	}
	b.ReportMetric(factor, "throughput-factor")
}

// BenchmarkGARAblation compares server-side rules under attack; metric: the
// accuracy margin of Multi-Krum over mean.
func BenchmarkGARAblation(b *testing.B) {
	var margin float64
	for i := 0; i < b.N; i++ {
		rows, err := guanyu.GARAblation(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string]float64{}
		for _, r := range rows {
			byName[r.Rule] = r.FinalAccuracy
		}
		margin = byName["multi-krum(f=5)"] - byName["mean"]
	}
	b.ReportMetric(margin, "krum-margin")
}

// BenchmarkAsyncSweep varies the latency tail weight; metric: the virtual-
// time ratio between the heaviest-tailed and the deterministic network
// (accuracy should stay flat — checked in the experiments tests).
func BenchmarkAsyncSweep(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := guanyu.AsyncSweep(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[len(rows)-1].VirtualTime / rows[0].VirtualTime
	}
	b.ReportMetric(ratio, "time-ratio")
}

// ---------------------------------------------------------------------------
// Micro benchmarks: the aggregation rules at the paper's fan-in (q̄ = 13
// gradients) and the tiny CNN dimension, reduced the way the node loops
// reduce a one-shard quorum (cluster's quorum.reduce): gar.StreamerFor, one
// Fold of the whole vectors, Result, and the output back to the free list.
// ---------------------------------------------------------------------------

func benchVectors(n, d int) [][]float64 {
	rng := tensor.NewRNG(7)
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NormVec(make([]float64, d), 0, 1)
	}
	return vs
}

func benchRule(b *testing.B, name string, f, n, d int) {
	b.Helper()
	rule, err := gar.FromName(name, f)
	if err != nil {
		b.Fatal(err)
	}
	vs := benchVectors(n, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _ := gar.StreamerFor(rule, d)
		if err := st.Fold(0, d, vs); err != nil {
			b.Fatal(err)
		}
		out, err := st.Result()
		if err != nil {
			b.Fatal(err)
		}
		tensor.Put(out)
	}
}

// withParallelism pins the kernel worker count for one benchmark: 1 for the
// Serial variants, 0 (= all CPUs) for the Parallel variants. The unsuffixed
// benchmarks run at the ambient default.
func withParallelism(b *testing.B, n int) {
	b.Helper()
	prev := guanyu.SetParallelism(n)
	b.Cleanup(func() { guanyu.SetParallelism(prev) })
}

func BenchmarkGARMean13x2726(b *testing.B)        { benchRule(b, "mean", 0, 13, 2726) }
func BenchmarkGARMedian13x2726(b *testing.B)      { benchRule(b, "coordinate-median", 0, 13, 2726) }
func BenchmarkGARMultiKrum13x2726(b *testing.B)   { benchRule(b, "multi-krum", 5, 13, 2726) }
func BenchmarkGARTrimmedMean13x2726(b *testing.B) { benchRule(b, "trimmed-mean", 5, 13, 2726) }
func BenchmarkGARBulyan23x2726(b *testing.B)      { benchRule(b, "bulyan", 5, 23, 2726) }

// The same rules at kernel parallelism 1, how a benchmark node runs them.
func BenchmarkGARMedian13x2726Serial(b *testing.B) {
	withParallelism(b, 1)
	benchRule(b, "coordinate-median", 0, 13, 2726)
}

func BenchmarkGARMultiKrum13x2726Serial(b *testing.B) {
	withParallelism(b, 1)
	benchRule(b, "multi-krum", 5, 13, 2726)
}

func BenchmarkGARTrimmedMean13x2726Serial(b *testing.B) {
	withParallelism(b, 1)
	benchRule(b, "trimmed-mean", 5, 13, 2726)
}

func BenchmarkGARBulyan23x2726Serial(b *testing.B) {
	withParallelism(b, 1)
	benchRule(b, "bulyan", 5, 23, 2726)
}

// The same rules at the benchmark's wide dimension (paper d / 8) and the
// paper's two quorums: q = 5 parameter vectors into the median (24 times a
// step at the 6/18 shape), q̄ = 13 gradients into Multi-Krum (6 times).
// BENCH_gar.json records these rows before and after the small-q kernels.
func BenchmarkGARMedian5x207882(b *testing.B) { benchRule(b, "coordinate-median", 0, 5, 207882) }
func BenchmarkGARTrimmedMean13x207882(b *testing.B) {
	benchRule(b, "trimmed-mean", 5, 13, 207882)
}
func BenchmarkGARMultiKrum13x207882(b *testing.B) { benchRule(b, "multi-krum", 5, 13, 207882) }

// The two wide rules at kernel parallelism 1, which is how a benchmark node
// runs them; the rows above split Multi-Krum's distance pass by rows across
// every CPU. BENCH_simd.json records these before and after the AVX2 bodies.
func BenchmarkGARMedian5x207882Serial(b *testing.B) {
	withParallelism(b, 1)
	benchRule(b, "coordinate-median", 0, 5, 207882)
}

func BenchmarkGARMultiKrum13x207882Serial(b *testing.B) {
	withParallelism(b, 1)
	benchRule(b, "multi-krum", 5, 13, 207882)
}

// benchGradientTinyConvNet measures the worker-side gradient estimation
// (batch of 16 on the harness CNN).
func benchGradientTinyConvNet(b *testing.B) {
	rng := tensor.NewRNG(9)
	m := nn.NewTinyConvNet(rng, 10)
	xs := make([][]float64, 16)
	labels := make([]int, 16)
	for i := range xs {
		xs[i] = rng.NormVec(make([]float64, 3*8*8), 0, 1)
		labels[i] = i % 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.BatchGradient(m, xs, labels)
	}
}

func BenchmarkGradientTinyConvNet(b *testing.B) { benchGradientTinyConvNet(b) }
func BenchmarkGradientTinyConvNetSerial(b *testing.B) {
	withParallelism(b, 1)
	benchGradientTinyConvNet(b)
}
func BenchmarkGradientTinyConvNetParallel(b *testing.B) {
	withParallelism(b, 0)
	benchGradientTinyConvNet(b)
}

// benchCIFARNetForward measures one forward pass of the full Table-1
// network (1.75M parameters).
func benchCIFARNetForward(b *testing.B) {
	rng := tensor.NewRNG(10)
	m := nn.NewCIFARNet(rng)
	x := rng.NormVec(make([]float64, 3*32*32), 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

func BenchmarkCIFARNetForward(b *testing.B)         { benchCIFARNetForward(b) }
func BenchmarkCIFARNetForwardSerial(b *testing.B)   { withParallelism(b, 1); benchCIFARNetForward(b) }
func BenchmarkCIFARNetForwardParallel(b *testing.B) { withParallelism(b, 0); benchCIFARNetForward(b) }

// benchGradientCIFARNet measures the worker-side gradient estimation at the
// paper's model: one mini-batch of 4 on the Table-1 network, the per-worker,
// per-step compute of a paper-dimension deployment.
func benchGradientCIFARNet(b *testing.B) {
	rng := tensor.NewRNG(11)
	m := nn.NewCIFARNet(rng)
	xs := make([][]float64, 4)
	labels := make([]int, 4)
	for i := range xs {
		xs[i] = rng.NormVec(make([]float64, 3*32*32), 0, 1)
		labels[i] = i % 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, g := nn.BatchGradient(m, xs, labels)
		tensor.Put(g)
	}
}

func BenchmarkGradientCIFARNetSerial(b *testing.B) { withParallelism(b, 1); benchGradientCIFARNet(b) }

// benchConvForward measures one forward pass of a single convolution layer,
// serial, at the shapes of the harness CNN and of the Table-1 network.
func benchConvForward(b *testing.B, inC, inH, inW, outC, k, pad int) {
	withParallelism(b, 1)
	rng := tensor.NewRNG(14)
	conv := nn.NewConv2D(inC, inH, inW, outC, k, k, 1, pad, rng)
	x := rng.NormVec(make([]float64, inC*inH*inW), 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x)
	}
}

func BenchmarkConvForwardTiny1(b *testing.B)  { benchConvForward(b, 3, 8, 8, 6, 3, 1) }
func BenchmarkConvForwardTiny2(b *testing.B)  { benchConvForward(b, 6, 4, 4, 12, 3, 1) }
func BenchmarkConvForwardCIFAR1(b *testing.B) { benchConvForward(b, 3, 32, 32, 64, 5, 2) }
func BenchmarkConvForwardCIFAR2(b *testing.B) { benchConvForward(b, 64, 16, 16, 64, 5, 2) }

// benchConvBackward measures one backward pass of a single convolution
// layer, serial, through a Sequential: as the model's first layer (parameter
// gradients only) or, behind the pooling layer that precedes it in the two
// networks, as a hidden one (input gradient too; the pooling layer's own
// backward is a clear and a scatter, well under 1 % of the row). dout is
// 22 % dense, which is what max-pooling's backward leaves of a gradient.
func benchConvBackward(b *testing.B, first bool, inC, inH, inW, outC, k, pad int) {
	withParallelism(b, 1)
	rng := tensor.NewRNG(15)
	conv := nn.NewConv2D(inC, inH, inW, outC, k, k, 1, pad, rng)
	m, in := nn.NewSequential(conv), inC*inH*inW
	if !first {
		m, in = nn.NewSequential(nn.NewMaxPool2D(inC, 2*inH, 2*inW, 2, 2, 0), conv), 4*in
	}
	m.Forward(rng.NormVec(make([]float64, in), 0, 1))
	dout := rng.NormVec(make([]float64, conv.OutputSize()), 0, 1)
	for i := range dout {
		if rng.Intn(100) >= 22 {
			dout[i] = 0
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Backward(dout)
	}
}

func BenchmarkConvBackwardTiny1(b *testing.B)  { benchConvBackward(b, true, 3, 8, 8, 6, 3, 1) }
func BenchmarkConvBackwardTiny2(b *testing.B)  { benchConvBackward(b, false, 6, 4, 4, 12, 3, 1) }
func BenchmarkConvBackwardCIFAR1(b *testing.B) { benchConvBackward(b, true, 3, 32, 32, 64, 5, 2) }
func BenchmarkConvBackwardCIFAR2(b *testing.B) { benchConvBackward(b, false, 64, 16, 16, 64, 5, 2) }

// signRandom returns n standard normals: about half negative, in no
// pattern a branch predictor can learn — what a convolution hands a ReLU.
func signRandom(seed uint64, n int) []float64 {
	return tensor.NewRNG(seed).NormVec(make([]float64, n), 0, 1)
}

// BenchmarkReLUForward and BenchmarkReLUBackward run one pass over 65,536
// activations (CIFARNet's first ReLU).
func BenchmarkReLUForward(b *testing.B) {
	relu, x := nn.NewReLU(1<<16), signRandom(16, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relu.Forward(x)
	}
}

func BenchmarkReLUBackward(b *testing.B) {
	relu, dout := nn.NewReLU(1<<16), signRandom(17, 1<<16)
	relu.Forward(signRandom(16, 1<<16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relu.Backward(dout)
	}
}

// benchMaxPoolForward measures one pooling pass over ReLU-clamped input
// (half the cells +0, so windows tie), at the first pooling layer of the
// harness CNN and of the Table-1 network.
func benchMaxPoolForward(b *testing.B, c, inH, inW, k, stride, pad int) {
	pool := nn.NewMaxPool2D(c, inH, inW, k, stride, pad)
	x := nn.NewReLU(c * inH * inW).Forward(signRandom(18, c*inH*inW))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Forward(x)
	}
}

func BenchmarkMaxPoolForwardTiny1(b *testing.B)  { benchMaxPoolForward(b, 6, 8, 8, 2, 2, 0) }
func BenchmarkMaxPoolForwardCIFAR1(b *testing.B) { benchMaxPoolForward(b, 64, 32, 32, 3, 2, 1) }

// benchMatVec measures one Dense forward product of the wide workloads'
// MLP(192, 1024, 10) on one worker, as the benchmark's pinned nodes run it.
func benchMatVec(b *testing.B, rows, cols int) {
	withParallelism(b, 1)
	m := tensor.NewMatrix(rows, cols)
	tensor.NewRNG(19).NormVec(m.Data, 0, 1)
	x, dst := signRandom(20, cols), make([]float64, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatVec(dst, x)
	}
}

func BenchmarkMatVec1024x192(b *testing.B) { benchMatVec(b, 1024, 192) }
func BenchmarkMatVec10x1024(b *testing.B)  { benchMatVec(b, 10, 1024) }

// ---------------------------------------------------------------------------
// Wire benchmarks: the transport codec on a full paper-scale payload
// (1,756,426 coordinates — the Table-1 model as one message). The binary
// codec must run with 0 allocs/op in steady state (the 5–12× it measured
// over the retired encoding/gob wire format is a dated row in
// EXPERIMENTS.md). b.SetBytes makes `go test -bench Wire` report MB/s
// directly — the codec rate the retired `throughput` experiment priced
// (EXPERIMENTS.md keeps its last numbers).
// ---------------------------------------------------------------------------

// wireBenchMessage builds the paper-scale message the wire benchmarks ship.
func wireBenchMessage() transport.Message {
	rng := tensor.NewRNG(12)
	return transport.Message{
		From: "wrk12",
		Kind: transport.KindGradient,
		Step: 7,
		Vec:  rng.NormVec(make(tensor.Vector, 1756426), 0, 1),
	}
}

func BenchmarkWireEncodeBinary1756426(b *testing.B) {
	m := wireBenchMessage()
	buf, err := transport.AppendMessage(nil, &m)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = transport.AppendMessage(buf[:0], &m)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeBinary1756426(b *testing.B) {
	m := wireBenchMessage()
	frame, err := transport.AppendMessage(nil, &m)
	if err != nil {
		b.Fatal(err)
	}
	var out transport.Message
	if _, err := transport.DecodeMessage(frame, &out); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transport.DecodeMessage(frame, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireSendRecvTCP207882 ships one wide-model vector (d = 207,882,
// the benchmark's 1.66 MB frame) from one TCPNode to another over loopback
// and receives it: head staging + writev from the vector's memory on the
// send side, read straight into the delivered vector on the other. The
// allocation per op is the vector the receiver keeps.
func BenchmarkWireSendRecvTCP207882(b *testing.B) {
	recv, err := transport.ListenTCP("recv", "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	send, err := transport.ListenTCP("send", "127.0.0.1:0", map[string]string{"recv": recv.Addr()})
	if err != nil {
		b.Fatal(err)
	}
	defer send.Close()
	m := transport.Message{Kind: transport.KindGradient, Step: 7,
		Vec: tensor.NewRNG(12).NormVec(make(tensor.Vector, 207882), 0, 1)}
	roundTrip := func() {
		if err := send.Send("recv", m); err != nil {
			b.Fatal(err)
		}
		if _, ok := recv.Recv(10 * time.Second); !ok {
			b.Fatal("frame lost on loopback")
		}
	}
	roundTrip() // dial, hello, buffers
	b.SetBytes(int64(transport.EncodedSize(&m)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// BenchmarkWireBroadcastCouriers207882 is one honest broadcast of the
// streaming benchmark workload: a wide-model vector to 23 loopback TCPNodes
// (18 workers + 5 peers) through drop-oldest couriers, float32 on the wire,
// 13 chunk frames of 16,384 coordinates per link. One op ends when every
// receiver holds all its frames; B/op shows what the send side (one
// snapshot and one encoding per frame) and the receive side (vectors handed
// back to the free list) allocate in steady state.
func BenchmarkWireBroadcastCouriers207882(b *testing.B) {
	const dim, shard, receivers = 207882, 16384, 23
	f32 := compress.Config{Scheme: compress.Float32}
	peers := make(map[string]string, receivers)
	nodes := make([]*transport.TCPNode, receivers)
	tos := make([]string, receivers)
	for i := range nodes {
		node, err := transport.ListenTCP(fmt.Sprintf("recv%d", i), "127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		if err := node.SetCompression(compress.Config{}, dim); err != nil {
			b.Fatal(err)
		}
		nodes[i], tos[i], peers[node.ID()] = node, node.ID(), node.Addr()
	}
	send, err := transport.ListenTCP("send", "127.0.0.1:0", peers)
	if err != nil {
		b.Fatal(err)
	}
	if err := send.SetCompression(f32, 0); err != nil {
		b.Fatal(err)
	}
	couriers := transport.NewCouriers(send, transport.MailboxConfig{Cap: 128, Policy: transport.DropOldest})
	defer couriers.Close()
	m := transport.Message{Kind: transport.KindParams, Step: 7,
		Vec: tensor.NewRNG(12).NormVec(make(tensor.Vector, dim), 0, 1)}
	frames := transport.NewShardLayout(dim, shard).Count()
	broadcast := func() {
		if err := transport.Broadcast(couriers, tos, m, shard); err != nil {
			b.Fatal(err)
		}
		for _, node := range nodes {
			for f := 0; f < frames; f++ {
				got, ok := node.Recv(10 * time.Second)
				if !ok {
					b.Fatal("frame lost on loopback")
				}
				tensor.Put(got.Vec)
			}
		}
	}
	broadcast() // dials, hellos, buffers, free lists
	b.SetBytes(int64(receivers * f32.PayloadBytes(dim)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broadcast()
	}
}

// wireBenchShardSize is the chunk width of the sharded wire benchmarks —
// the bandwidth experiment's streaming width (64 Ki coordinates, 512 KiB
// frames; 27 shards at the paper dimension).
const wireBenchShardSize = 1 << 16

// BenchmarkWireEncodeSharded1756426 encodes one paper-scale vector as its
// full chunk-frame stream (reused buffer, steady state) — the sharded
// counterpart of BenchmarkWireEncodeBinary1756426, so the per-frame
// header overhead of chunking is measured, not guessed.
func BenchmarkWireEncodeSharded1756426(b *testing.B) {
	m := wireBenchMessage()
	shards := transport.SplitMessage(m, wireBenchShardSize)
	var buf []byte
	total := 0
	for i := range shards {
		total += transport.EncodedSize(&shards[i])
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for s := range shards {
			var err error
			if buf, err = transport.AppendMessage(buf, &shards[s]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWireDecodeSharded1756426 decodes the full chunk-frame stream
// back into per-shard messages (reused decode target per the ownership
// contract).
func BenchmarkWireDecodeSharded1756426(b *testing.B) {
	m := wireBenchMessage()
	var frames []byte
	for _, sm := range transport.SplitMessage(m, wireBenchShardSize) {
		var err error
		if frames, err = transport.AppendMessage(frames, &sm); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(frames)))
	b.ReportAllocs()
	b.ResetTimer()
	var out transport.Message
	for i := 0; i < b.N; i++ {
		off := 0
		for off < len(frames) {
			n, err := transport.DecodeMessage(frames[off:], &out)
			if err != nil {
				b.Fatal(err)
			}
			off += n
		}
	}
}

// ---------------------------------------------------------------------------
// Compressed-wire benchmarks: each compression scheme on the paper-scale
// payload, measured as the full hot path a live connection runs — payload
// codec plus frame codec. b.SetBytes is the LOGICAL raw volume (8 bytes ×
// 1,756,426 coordinates per vector), so the reported MB/s is raw-equivalent
// throughput and compares directly against the uncompressed Binary pair
// above; the wire-byte reduction itself is pinned by BENCH_wire.json.
// ---------------------------------------------------------------------------

// benchWireCompressEncode measures encode: payload compression into a
// reused buffer, then binary framing into a reused frame.
func benchWireCompressEncode(b *testing.B, spec string) {
	b.Helper()
	m := wireBenchMessage()
	cfg, err := compress.ParseSpec(spec)
	if err != nil {
		b.Fatal(err)
	}
	enc := compress.NewEncoder(cfg)
	var payload, frame []byte
	b.SetBytes(int64(8 * len(m.Vec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, err = enc.Encode(payload[:0], uint8(m.Kind), int64(i), 0, m.Vec)
		if err != nil {
			b.Fatal(err)
		}
		cm := transport.Message{From: m.From, Kind: m.Kind, Step: i,
			Comp: transport.CompMeta{Scheme: uint8(cfg.Scheme), Dim: len(m.Vec), Data: payload}}
		if frame, err = transport.AppendMessage(frame[:0], &cm); err != nil {
			b.Fatal(err)
		}
	}
	_ = frame
}

// benchWireCompressDecode measures decode: binary frame parse, then payload
// expansion into a reused vector.
func benchWireCompressDecode(b *testing.B, spec string) {
	b.Helper()
	m := wireBenchMessage()
	cfg, err := compress.ParseSpec(spec)
	if err != nil {
		b.Fatal(err)
	}
	payload, err := compress.NewEncoder(cfg).Encode(nil, uint8(m.Kind), 0, 0, m.Vec)
	if err != nil {
		b.Fatal(err)
	}
	cm := transport.Message{From: m.From, Kind: m.Kind,
		Comp: transport.CompMeta{Scheme: uint8(cfg.Scheme), Dim: len(m.Vec), Data: payload}}
	frame, err := transport.AppendMessage(nil, &cm)
	if err != nil {
		b.Fatal(err)
	}
	var out transport.Message
	b.SetBytes(int64(8 * len(m.Vec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transport.DecodeMessage(frame, &out); err != nil {
			b.Fatal(err)
		}
		if err := transport.DecompressMessage(&out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeFloat321756426(b *testing.B) { benchWireCompressEncode(b, "float32") }
func BenchmarkWireDecodeFloat321756426(b *testing.B) { benchWireCompressDecode(b, "float32") }
func BenchmarkWireEncodeTopK1756426(b *testing.B)    { benchWireCompressEncode(b, "topk:k=0.01") }
func BenchmarkWireDecodeTopK1756426(b *testing.B)    { benchWireCompressDecode(b, "topk:k=0.01") }

// wireQuorumFeed builds the shared feed of the quorum benchmarks: n
// paper-scale vectors.
func wireQuorumFeed(n int) []tensor.Vector {
	rng := tensor.NewRNG(12)
	vecs := make([]tensor.Vector, n)
	for i := range vecs {
		vecs[i] = rng.NormVec(make(tensor.Vector, 1756426), 0, 1)
	}
	return vecs
}

// benchWireQuorum replays an 8-sender, q=5 round through the Collector as
// round-robin frames of the given shard size (0: whole vectors); the
// peak-bytes metric is the collector's buffer high-water mark.
func benchWireQuorum(b *testing.B, size int) {
	vecs := wireQuorumFeed(8)
	layout := transport.NewShardLayout(len(vecs[0]), size)
	frames := make([][]transport.Message, len(vecs))
	for i := range vecs {
		frames[i] = transport.SplitMessage(transport.Message{
			Kind: transport.KindParams, Step: 0, Vec: vecs[i],
		}, size)
	}
	peak := 0
	fold := func(int, int, []string, []tensor.Vector) error { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := transport.NewChanNetwork(nil)
		recv, _ := net.Register("recv")
		eps := make([]transport.Endpoint, len(vecs))
		for j := range vecs {
			eps[j], _ = net.Register(string(rune('a' + j)))
		}
		for s := 0; s < layout.Count(); s++ {
			for j := range eps {
				_ = eps[j].Send("recv", frames[j][s])
			}
		}
		col := transport.NewCollector(recv, layout)
		if _, err := col.Collect(transport.KindParams, 0, 5, nil, "", false, fold, -1); err != nil {
			b.Fatal(err)
		}
		peak = col.Metrics.PeakBytes()
		net.Close()
	}
	b.ReportMetric(float64(peak), "peak-bytes")
}

// BenchmarkWireQuorumWhole1756426 is the one-shard layout: the O(q·d)
// buffer sharding exists to avoid.
func BenchmarkWireQuorumWhole1756426(b *testing.B) { benchWireQuorum(b, 0) }

// BenchmarkWireQuorumSharded1756426 replays the identical round as chunk
// frames at the sharded layout.
func BenchmarkWireQuorumSharded1756426(b *testing.B) { benchWireQuorum(b, wireBenchShardSize) }

// BenchmarkAttackCorrupt measures the per-message cost of the heaviest
// attack (fresh Gaussian vector per receiver).
func BenchmarkAttackCorrupt(b *testing.B) {
	a := attack.NewRandomGaussian(100, 1)
	honest := make(tensor.Vector, 2726)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Corrupt(honest, i, "ps0")
	}
}

// BenchmarkParamRoundTrip measures the model flatten/scatter pair every
// node performs each step.
func BenchmarkParamRoundTrip(b *testing.B) {
	m := nn.NewTinyConvNet(tensor.NewRNG(11), 10)
	theta := m.ParamVector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.SetParamVector(theta); err != nil {
			b.Fatal(err)
		}
		theta = m.ParamVector()
	}
}

// ---------------------------------------------------------------------------
// Mailbox micro-benchmarks: the actor runtime's hot paths. Every frame a
// node receives crosses Put and Recv once; Overflow is the extra work a
// flooding peer forces per sprayed frame once its per-sender queue is full.
// ---------------------------------------------------------------------------

// BenchmarkMailboxPut measures the bare enqueue path under the unbounded
// default (no eviction branch taken). The box is drained off the clock so
// memory stays flat at any b.N.
func BenchmarkMailboxPut(b *testing.B) {
	box := transport.NewMailbox()
	m := transport.Message{From: "w", Kind: transport.KindGradient, Vec: tensor.Vector{1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		box.Put(m)
		if box.Len() >= 4096 {
			b.StopTimer()
			for box.Len() > 0 {
				box.Recv(0)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkMailboxRecv measures the dequeue path; the box is refilled off
// the clock.
func BenchmarkMailboxRecv(b *testing.B) {
	box := transport.NewMailbox()
	m := transport.Message{From: "w", Kind: transport.KindGradient, Vec: tensor.Vector{1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if box.Len() == 0 {
			b.StopTimer()
			for j := 0; j < 4096; j++ {
				box.Put(m)
			}
			b.StartTimer()
		}
		if _, ok := box.Recv(0); !ok {
			b.Fatal("empty recv")
		}
	}
}

// BenchmarkMailboxOverflow measures steady-state drop-oldest eviction: the
// sender's queue is pinned at its cap, so every Put unlinks that sender's
// oldest frame and enqueues the new one — O(1) by construction, and this
// benchmark is what holds that claim to a number.
func BenchmarkMailboxOverflow(b *testing.B) {
	box := transport.NewMailboxWith(transport.MailboxConfig{
		Cap: transport.DefaultMailboxCap, Policy: transport.DropOldest,
	})
	m := transport.Message{From: "flood", Kind: transport.KindGradient, Vec: tensor.Vector{1}}
	for i := 0; i < transport.DefaultMailboxCap; i++ {
		box.Put(m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		box.Put(m)
	}
	if got := box.Metrics().DroppedOverflow.Load(); got != uint64(b.N) {
		b.Fatalf("DroppedOverflow = %d, want %d", got, b.N)
	}
}
