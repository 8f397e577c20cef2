package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/loss"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Replays time the work that has no seam inside a round: nn layers, the
// losses, augmentation, evaluation and codec encode/decode. Wrapping a
// live layer would turn off cohort-batched GEMM (nn/batch.go type-asserts
// *nn.Dense and *nn.Conv2D), so instead a fresh client from the workload's
// own builder trains one epoch at the workload's batch shape, layer by
// layer, and the per-step costs are scaled by the per-round call counts
// the traced run measured. Replays run solo, one client at a time.

// replayReps is how many epochs (and evaluations, and codec round trips)
// each replay times; every reported cost is the median over them.
const replayReps = 9

// wireKindUpdate is the wire protocol's client-update message kind (the
// fourth kind after the 0x4657 base); codec frames carry it as their tag.
const wireKindUpdate = 0x4657 + 3

// layerKinds are the top-level layer classes the nn metrics report.
var layerKinds = []string{"conv", "residual", "bn", "dense", "other"}

func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "conv"
	case *nn.Residual:
		return "residual"
	case *nn.BatchNorm2D, *nn.BatchNorm1D:
		return "bn"
	case *nn.Dense:
		return "dense"
	}
	return "other"
}

// archCost is one architecture's replayed per-epoch costs (medians).
type archCost struct {
	arch         string
	steps        int // optimizer steps per epoch
	examples     int // training examples per epoch
	fwd, bwd     map[string]time.Duration
	ce, supcon   time.Duration
	augment      time.Duration
	eval         time.Duration // one EvalAccuracy call
	testExamples int
	extFlops     float64 // extractor forward FLOPs per example
	clfFlops     float64 // classifier forward FLOPs per example
	encode       time.Duration
	decode       time.Duration
	upFrameBytes int
}

// replayArch replays client id: its epoch layer by layer, its evaluation,
// and the codec round trip of its upload before and after the epoch.
func replayArch(out *runOut, id int, tr *tracer) *archCost {
	c := out.build(id)
	ac := &archCost{arch: c.Model.Name, testExamples: len(c.Test)}
	ac.extFlops, ac.clfFlops = forwardFlops(c)
	upload := func() []float64 {
		if out.upClassOnly {
			return nn.FlattenParams(c.Model.ClassifierParams())
		}
		return nn.FlattenParams(c.Model.Params())
	}
	before := upload()

	fwd := make(map[string][]time.Duration)
	bwd := make(map[string][]time.Duration)
	var ce, supcon, aug []time.Duration
	for rep := 0; rep < replayReps; rep++ {
		e := replayEpoch(c, out)
		ac.steps, ac.examples = e.steps, e.examples
		for _, k := range layerKinds {
			fwd[k] = append(fwd[k], e.fwd[k])
			bwd[k] = append(bwd[k], e.bwd[k])
		}
		ce, supcon, aug = append(ce, e.ce), append(supcon, e.supcon), append(aug, e.augment)
	}
	ac.fwd, ac.bwd = make(map[string]time.Duration), make(map[string]time.Duration)
	for _, k := range layerKinds {
		ac.fwd[k], ac.bwd[k] = median(fwd[k]), median(bwd[k])
		tr.replay("nn."+k+".fwd", ac.arch, ac.fwd[k])
		tr.replay("nn."+k+".bwd", ac.arch, ac.bwd[k])
	}
	ac.ce, ac.supcon, ac.augment = median(ce), median(supcon), median(aug)
	tr.replay("loss.ce", ac.arch, ac.ce)
	tr.replay("loss.supcon", ac.arch, ac.supcon)
	tr.replay("data.augment", ac.arch, ac.augment)

	var evals []time.Duration
	for rep := 0; rep < replayReps; rep++ {
		t := time.Now()
		c.EvalAccuracy()
		evals = append(evals, time.Since(t))
	}
	ac.eval = median(evals)
	tr.replay("fl.eval", ac.arch, ac.eval)

	ac.encode, ac.decode, ac.upFrameBytes = replayCodec(out.upSpec, before, upload())
	tr.replay("comm.encode", ac.arch, ac.encode)
	tr.replay("comm.decode", ac.arch, ac.decode)
	return ac
}

type epochCost struct {
	steps, examples     int
	fwd, bwd            map[string]time.Duration
	ce, supcon, augment time.Duration
}

// replayEpoch trains one local epoch the way the workload's algorithm
// does — FedClassAvg's two stacked views plus SupCon when contrastive,
// plain cross-entropy otherwise — timing each top-level layer.
func replayEpoch(c *fl.Client, out *runOut) epochCost {
	e := epochCost{fwd: make(map[string]time.Duration), bwd: make(map[string]time.Duration)}
	layers := c.Model.Extractor.Layers
	clf := c.Model.Classifier
	ch, h, w := c.InputGeometry()
	dim := ch * h * w
	dt := c.DType()
	for _, b := range data.Batches(c.Train, out.batch, c.Rng) {
		n := len(b)
		e.steps++
		e.examples += n
		t := time.Now()
		var x *tensor.Tensor
		var labels []int
		if out.contrastive {
			x = tensor.GetTensorOf(dt, 2*n, ch, h, w)
			labels = make([]int, n)
			for i, ex := range b {
				v1, v2 := c.Aug.TwoViews(ex.X, c.Rng)
				x.WriteFloat64sAt(i*dim, v1)
				x.WriteFloat64sAt((n+i)*dim, v2)
				labels[i] = ex.Y
			}
		} else {
			x, labels = c.AugmentedBatch(b)
			x = c.Model.CastInput(x)
		}
		e.augment += time.Since(t)

		a := x
		for _, l := range layers {
			t = time.Now()
			a = l.Forward(a, true)
			e.fwd[layerKind(l)] += time.Since(t)
		}
		feats := a
		view1 := feats
		if out.contrastive {
			view1 = feats.SliceRows(0, n)
		}
		t = time.Now()
		logits := clf.Forward(view1, true)
		e.fwd["dense"] += time.Since(t)
		t = time.Now()
		_, dlogits := loss.CrossEntropy(logits, labels)
		e.ce += time.Since(t)
		t = time.Now()
		g := clf.Backward(dlogits)
		e.bwd["dense"] += time.Since(t)
		var dfeats *tensor.Tensor
		if out.contrastive {
			dfeats = tensor.GetTensorOf(dt, feats.Rows(), feats.Cols())
			tensor.CopySegment(dfeats, 0, g, 0, n*feats.Cols())
			t = time.Now()
			_, dcl := loss.SupCon(feats, labels, loss.SupConOptions{Temperature: out.tau})
			e.supcon += time.Since(t)
			dfeats.AddInPlace(dcl)
			g = dfeats
		}
		for i := len(layers) - 1; i >= 0; i-- {
			t = time.Now()
			g = layers[i].Backward(g)
			e.bwd[layerKind(layers[i])] += time.Since(t)
		}
		if out.contrastive {
			tensor.PutTensor(dfeats)
			tensor.PutTensor(x)
		}
		params := c.Model.Params()
		c.Optimizer.Step(params)
		nn.ZeroGrads(params)
	}
	return e
}

// replayCodec times encoding and decoding the post-epoch upload under the
// workload's uplink spec. With delta framing the pre-epoch upload is sent
// first, so the timed frame is a residual against a real basis.
func replayCodec(spec comm.Spec, before, after []float64) (enc, dec time.Duration, frameBytes int) {
	var encRef, decRef *comm.DeltaRef
	if spec.Delta {
		encRef, decRef = &comm.DeltaRef{}, &comm.DeltaRef{}
		first := comm.MarshalSpecInto(nil, spec, wireKindUpdate, before, encRef)
		if _, _, err := comm.DecodeSpec(nil, first, decRef); err != nil {
			panic(err)
		}
	}
	clone := func(r *comm.DeltaRef) *comm.DeltaRef {
		if r == nil {
			return nil
		}
		return &comm.DeltaRef{Tag: r.Tag, Base: append([]float64(nil), r.Base...)}
	}
	var encs, decs []time.Duration
	buf := make([]byte, 0, comm.MarshalSpecBound(spec, len(after)))
	var scratch []float64
	for rep := 0; rep < replayReps; rep++ {
		er, dr := clone(encRef), clone(decRef)
		t := time.Now()
		frame := comm.MarshalSpecInto(buf[:0], spec, wireKindUpdate, after, er)
		encs = append(encs, time.Since(t))
		t = time.Now()
		_, v, err := comm.DecodeSpec(scratch, frame, dr)
		decs = append(decs, time.Since(t))
		if err != nil {
			panic(err)
		}
		scratch = v
		frameBytes = len(frame)
	}
	return median(encs), median(decs), frameBytes
}

// forwardFlops counts the multiply-add FLOPs (2 per MAC) of the conv and
// dense layers for one example, walking the model's real shapes.
func forwardFlops(c *fl.Client) (ext, clf float64) {
	ch, h, w := c.InputGeometry()
	x := tensor.NewOf(c.DType(), 1, ch, h, w)
	_, ext = seqFlops(c.Model.Extractor, x)
	d := c.Model.Classifier
	return ext, 2 * float64(d.In) * float64(d.Out)
}

func seqFlops(s *nn.Sequential, x *tensor.Tensor) (*tensor.Tensor, float64) {
	var total float64
	for _, l := range s.Layers {
		var f float64
		x, f = layerFlops(l, x)
		total += f
	}
	return x, total
}

func layerFlops(l nn.Layer, x *tensor.Tensor) (*tensor.Tensor, float64) {
	var f float64
	switch v := l.(type) {
	case *nn.Conv2D:
		oh, ow := v.OutputShape(x.Shape[2], x.Shape[3])
		f = 2 * float64(v.OutC*(v.InC/v.Groups)*v.KH*v.KW*oh*ow*x.Shape[0])
	case *nn.Dense:
		f = 2 * float64(v.In*v.Out*x.Shape[0])
	case *nn.Residual:
		_, f = seqFlops(v.Body, x)
		if v.Skip != nil {
			_, fs := seqFlops(v.Skip, x)
			f += fs
		}
	case *nn.Inception:
		for _, b := range v.Branches {
			_, fb := seqFlops(b, x)
			f += fb
		}
	}
	return l.Forward(x, false), f
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
