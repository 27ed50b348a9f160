package nn

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestTensorBasics(t *testing.T) {
	x := FromRows([][]float32{{1, 2, 3}, {4, 5, 6}})
	if x.Rows != 2 || x.Cols != 3 {
		t.Fatalf("shape %dx%d", x.Rows, x.Cols)
	}
	if x.At(1, 2) != 6 {
		t.Error("At wrong")
	}
	x.Set(0, 1, 9)
	if x.Row(0)[1] != 9 {
		t.Error("Set/Row wrong")
	}
	c := x.Clone()
	c.Set(0, 0, -1)
	if x.At(0, 0) == -1 {
		t.Error("Clone shares storage")
	}
	g := x.Gather([]int{1, 0, 1})
	if g.Rows != 3 || g.At(0, 0) != 4 || g.At(1, 1) != 9 {
		t.Error("Gather wrong")
	}
	v := x.SliceRows(1, 2)
	if v.Rows != 1 || v.At(0, 0) != 4 {
		t.Error("SliceRows wrong")
	}
	v.Set(0, 0, 42)
	if x.At(1, 0) != 42 {
		t.Error("SliceRows should share storage")
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float32{{1}, {1, 2}})
}

func TestSigmoidAndLogit(t *testing.T) {
	if s := Sigmoid(0); s != 0.5 {
		t.Errorf("Sigmoid(0) = %v", s)
	}
	if s := Sigmoid(100); s < 0.999 {
		t.Errorf("Sigmoid(100) = %v", s)
	}
	if s := Sigmoid(-100); s > 0.001 {
		t.Errorf("Sigmoid(-100) = %v", s)
	}
	// Logit inverts sigmoid.
	for _, p := range []float64{0.01, 0.3, 0.5, 0.9, 0.99} {
		if got := float64(Sigmoid(float32(Logit(p)))); math.Abs(got-p) > 1e-6 {
			t.Errorf("Sigmoid(Logit(%v)) = %v", p, got)
		}
	}
}

func TestLinearShapesAndPanics(t *testing.T) {
	rng := xrand.New(1)
	l := NewLinear(3, 2, rng)
	y := l.Forward(FromRows([][]float32{{1, 0, 0}}), false)
	if y.Rows != 1 || y.Cols != 2 {
		t.Fatalf("output shape %dx%d", y.Rows, y.Cols)
	}
	// First output = W[0][0] + b[0] for the unit input.
	want := l.Weight.W[0] + l.Bias.W[0]
	if math.Abs(float64(y.At(0, 0)-want)) > 1e-6 {
		t.Error("linear forward arithmetic wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch did not panic")
		}
	}()
	l.Forward(NewTensor(1, 5), false)
}

func TestBatchNormTrainEval(t *testing.T) {
	bn := NewBatchNorm1D(2)
	x := FromRows([][]float32{{1, 10}, {3, 30}, {5, 50}, {7, 70}})
	y := bn.Forward(x, true)
	// Training output is standardized per feature (γ=1, β=0 initially).
	for c := 0; c < 2; c++ {
		var mean, v float32
		for r := 0; r < 4; r++ {
			mean += y.At(r, c)
		}
		mean /= 4
		for r := 0; r < 4; r++ {
			d := y.At(r, c) - mean
			v += d * d
		}
		if math.Abs(float64(mean)) > 1e-5 || math.Abs(float64(v/4-1)) > 1e-3 {
			t.Errorf("feature %d not standardized: mean %v var %v", c, mean, v/4)
		}
	}
	// After many training passes, eval mode uses running stats ≈ batch
	// stats, so eval output of the same batch is ≈ standardized too.
	for i := 0; i < 200; i++ {
		bn.Forward(x, true)
	}
	// Running variance is the unbiased estimate (n/(n−1), as in PyTorch),
	// so eval output is the train value scaled by sqrt((n−1)/n).
	ye := bn.Forward(x, false)
	want := -1.3416 * math.Sqrt(3.0/4.0)
	if math.Abs(float64(ye.At(0, 0))-want) > 0.02 {
		t.Errorf("eval-mode output %v, want ~%.4f", ye.At(0, 0), want)
	}
	// Batch of one panics in training.
	defer func() {
		if recover() == nil {
			t.Error("BatchNorm train on 1 row did not panic")
		}
	}()
	bn.Forward(NewTensor(1, 2), true)
}

func TestReLUForward(t *testing.T) {
	a := NewReLU()
	y := a.Forward(FromRows([][]float32{{-1, 0, 2}}), true)
	if y.At(0, 0) != 0 || y.At(0, 1) != 0 || y.At(0, 2) != 2 {
		t.Error("ReLU forward wrong")
	}
	dx := a.Backward(FromRows([][]float32{{5, 5, 5}}))
	if dx.At(0, 0) != 0 || dx.At(0, 2) != 5 {
		t.Error("ReLU backward mask wrong")
	}
}

func TestLossValues(t *testing.T) {
	pred := FromRows([][]float32{{0}})
	dp := NewTensor(1, 1)
	// BCE at logit 0 is ln 2 regardless of target.
	if got := (BCEWithLogits{}).Eval(pred, []float32{1}, dp); math.Abs(got-math.Ln2) > 1e-9 {
		t.Errorf("BCE(0,1) = %v, want ln2", got)
	}
	if dp.Data[0] >= 0 {
		t.Error("BCE gradient sign wrong for target 1")
	}
	pred = FromRows([][]float32{{2}})
	if got := (MSE{}).Eval(pred, []float32{0}, dp); got != 4 {
		t.Errorf("MSE = %v, want 4", got)
	}
	if dp.Data[0] != 4 {
		t.Errorf("MSE gradient = %v, want 4", dp.Data[0])
	}
}

func TestSGDMomentum(t *testing.T) {
	p := &Param{W: []float32{1}, G: []float32{1}}
	o := NewSGD(0.1, 0.9)
	o.Step([]*Param{p})
	if math.Abs(float64(p.W[0]-0.9)) > 1e-6 {
		t.Errorf("first step w = %v", p.W[0])
	}
	// Momentum accumulates: v = 0.9*(-0.1) - 0.1 = -0.19.
	o.Step([]*Param{p})
	if math.Abs(float64(p.W[0]-0.71)) > 1e-6 {
		t.Errorf("second step w = %v", p.W[0])
	}
}

func TestTrainingLearnsLinearlySeparable(t *testing.T) {
	rng := xrand.New(7)
	n := 600
	x := NewTensor(n, 2)
	y := make([]float32, n)
	for i := 0; i < n; i++ {
		a := float32(rng.Gaussian(0, 1))
		b := float32(rng.Gaussian(0, 1))
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if a+b > 0 {
			y[i] = 1
		}
	}
	ds := &Dataset{X: x, Y: y}
	train, val := ds.Split(0.8, rng)
	net := NewSequential(NewLinear(2, 8, rng), NewReLU(), NewLinear(8, 1, rng))
	tr := &Trainer{Net: net, Loss: BCEWithLogits{}, Opt: NewSGD(0.1, 0.9), BatchSize: 32, MaxEpochs: 40, Patience: 40}
	hist := tr.Fit(train, val, rng)
	if len(hist.TrainLoss) == 0 {
		t.Fatal("no epochs ran")
	}
	probs := net.PredictProbs(val.X)
	correct := 0
	for i, p := range probs {
		if (p > 0.5) == (val.Y[i] > 0.5) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(probs)); acc < 0.95 {
		t.Errorf("separable accuracy %v, want > 0.95", acc)
	}
}

func TestEarlyStoppingRestoresBestWeights(t *testing.T) {
	rng := xrand.New(9)
	// Pure-noise targets: validation loss cannot keep improving, so early
	// stopping must fire and the restored weights must give the recorded
	// best validation loss.
	x := randTensor(200, 3, rng)
	y := randTargets(200, rng)
	ds := &Dataset{X: x, Y: y}
	train, val := ds.Split(0.7, rng)
	net := NewSequential(NewLinear(3, 16, rng), NewReLU(), NewLinear(16, 1, rng))
	tr := &Trainer{Net: net, Loss: MSE{}, Opt: NewSGD(0.2, 0.9), BatchSize: 16, MaxEpochs: 200, Patience: 5}
	hist := tr.Fit(train, val, rng)
	if !hist.Stopped {
		t.Error("early stopping never fired on noise")
	}
	best := math.Inf(1)
	for _, v := range hist.ValLoss {
		best = math.Min(best, v)
	}
	if got := tr.Evaluate(val); math.Abs(got-best) > 1e-6 {
		t.Errorf("restored val loss %v, best seen %v", got, best)
	}
}

func TestStateRoundTrip(t *testing.T) {
	rng := xrand.New(11)
	build := func() *Sequential {
		r := xrand.New(99)
		return NewSequential(NewBatchNorm1D(3), NewLinear(3, 4, r), NewReLU(), NewLinear(4, 1, r))
	}
	a := build()
	// Perturb a's state by training a little so buffers differ from init.
	x := randTensor(32, 3, rng)
	y := randTargets(32, rng)
	tr := &Trainer{Net: a, Loss: MSE{}, Opt: NewSGD(0.05, 0.9), BatchSize: 8, MaxEpochs: 3, Patience: 10}
	tr.Fit(&Dataset{X: x, Y: y}, nil, rng)

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := build()
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	xa := a.Predict(x)
	xb := b.Predict(x)
	for i := range xa.Data {
		if xa.Data[i] != xb.Data[i] {
			t.Fatalf("prediction mismatch after round-trip at %d", i)
		}
	}
	// Mismatched architecture must error, not corrupt.
	c := NewSequential(NewLinear(3, 2, rng))
	var buf2 bytes.Buffer
	if err := a.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if err := c.Load(&buf2); err == nil {
		t.Error("loading into mismatched architecture succeeded")
	}
}

func TestDatasetSplit(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%100) + 10
		rng := xrand.New(seed)
		x := NewTensor(n, 1)
		y := make([]float32, n)
		for i := 0; i < n; i++ {
			x.Set(i, 0, float32(i))
			y[i] = float32(i)
		}
		a, b := (&Dataset{X: x, Y: y}).Split(0.8, rng)
		if a.Len()+b.Len() != n {
			return false
		}
		// Labels stay aligned with rows.
		for i := 0; i < a.Len(); i++ {
			if a.X.At(i, 0) != a.Y[i] {
				return false
			}
		}
		return a.Len() == int(0.8*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSequentialMisc(t *testing.T) {
	rng := xrand.New(13)
	net := NewSequential(NewBatchNorm1D(2), NewLinear(2, 3, rng), NewReLU(), NewLinear(3, 1, rng))
	if net.NumParams() != 2+2+2*3+3+3*1+1 {
		t.Errorf("NumParams = %d", net.NumParams())
	}
	if net.String() == "" {
		t.Error("empty String")
	}
	net.Params()[0].G[0] = 5
	net.ZeroGrad()
	if net.Params()[0].G[0] != 0 {
		t.Error("ZeroGrad did not clear")
	}
	probs := net.PredictProbs(randTensor(4, 2, rng))
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Errorf("prob out of range: %v", p)
		}
	}
}

func TestHuberLoss(t *testing.T) {
	h := Huber{Delta: 1}
	dp := NewTensor(1, 1)
	// Inside the quadratic region: d²/2 with gradient d.
	if got := h.Eval(FromRows([][]float32{{0.5}}), []float32{0}, dp); math.Abs(got-0.125) > 1e-9 {
		t.Errorf("huber quadratic = %v", got)
	}
	if math.Abs(float64(dp.Data[0])-0.5) > 1e-9 {
		t.Errorf("huber quadratic grad = %v", dp.Data[0])
	}
	// Outside: linear with slope ±delta.
	if got := h.Eval(FromRows([][]float32{{3}}), []float32{0}, dp); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("huber linear = %v", got)
	}
	if dp.Data[0] != 1 {
		t.Errorf("huber linear grad = %v", dp.Data[0])
	}
	if got := h.Eval(FromRows([][]float32{{-3}}), []float32{0}, dp); math.Abs(got-2.5) > 1e-9 || dp.Data[0] != -1 {
		t.Errorf("huber negative side wrong: %v grad %v", got, dp.Data[0])
	}
	if h.Name() != "huber" {
		t.Error("name wrong")
	}
}

func TestHuberGradient(t *testing.T) {
	rng := xrand.New(21)
	net := NewSequential(NewLinear(3, 5, rng), NewReLU(), NewLinear(5, 1, rng))
	x := randTensor(8, 3, rng)
	y := randTargets(8, rng)
	if frac := numericalGradCheck(t, net, Huber{Delta: 0.5}, x, y); frac > 0.08 {
		t.Errorf("huber gradient check: %.1f%% coordinates off", 100*frac)
	}
}
