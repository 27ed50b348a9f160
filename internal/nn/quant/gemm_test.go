package quant

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/xrand"
)

// convertTrained builds a trained, calibrated, converted Int8Net and its
// dataset. perChannel selects per-output-row weight scales.
func convertTrained(t *testing.T, perChannel bool) (*Int8Net, *nn.Dataset) {
	t.Helper()
	net, ds := buildTrainedSwapped(t)
	fused, err := FuseForQuant(net)
	if err != nil {
		t.Fatal(err)
	}
	if perChannel {
		for _, l := range fused.Layers {
			l.(*QATLinear).PerChannel = true
		}
	}
	calibrate(fused, ds, xrand.New(11))
	int8net, err := Convert(fused)
	if err != nil {
		t.Fatal(err)
	}
	return int8net, ds
}

// TestBatchedMatchesPerRow is the backend determinism contract: the batched
// GEMM must be bitwise-identical to per-row Logit calls at every batch
// size, because the zero-point fold is exact integer algebra. Besides the
// converted nets it covers hand-built ones at the edges of the integer
// contract: zero points on both rails, an OutZero outside int8, a zero
// shift, per-channel scales, and 200 random nets with widths 1–70.
func TestBatchedMatchesPerRow(t *testing.T) {
	check := func(t *testing.T, int8net *Int8Net, x *nn.Tensor, batches []int) {
		t.Helper()
		for _, batch := range batches {
			xb := x.SliceRows(0, batch)
			logits := int8net.Logits(xb)
			probs := int8net.Probs(xb)
			for r := 0; r < batch; r++ {
				if want := int8net.Logit(xb.Row(r)); logits[r] != want {
					t.Fatalf("batch %d row %d: batched logit %v != per-row %v", batch, r, logits[r], want)
				}
				if want := int8net.Prob(xb.Row(r)); probs[r] != want {
					t.Fatalf("batch %d row %d: batched prob %v != per-row %v", batch, r, probs[r], want)
				}
			}
		}
	}
	for _, perChannel := range []bool{false, true} {
		name := "per-tensor"
		if perChannel {
			name = "per-channel"
		}
		t.Run(name, func(t *testing.T) {
			int8net, ds := convertTrained(t, perChannel)
			x := nn.NewTensor(64, ds.X.Cols)
			for r := 0; r < x.Rows; r++ {
				copy(x.Row(r), ds.X.Row(r*7%ds.Len()))
			}
			check(t, int8net, x, []int{1, 3, 8, 64})
		})
	}

	// Hand-built nets: each edge case edits a random net.
	widths := []int{13, 37, 20, 1}
	edges := []struct {
		name string
		edit func(n *Int8Net)
	}{
		{"rails", func(n *Int8Net) {
			n.Input.Zero = 127
			for i := range n.Layers {
				l := &n.Layers[i]
				l.InZero = []int32{127, -128}[i%2]
				l.OutZero = []int32{-128, 127}[i%2]
				l.ReLU = true
			}
		}},
		{"out-zero-outside-int8", func(n *Int8Net) {
			n.Layers[0].OutZero, n.Layers[0].ReLU = 200, true
			n.Layers[1].OutZero, n.Layers[1].ReLU = -300, true
			n.Layers[1].InZero = 127
		}},
		{"shift-0", func(n *Int8Net) {
			n.Layers[0].M0, n.Layers[0].Shift = 1, 0
			n.Layers[1].M0, n.Layers[1].Shift = 3, 0
		}},
		{"per-channel", func(n *Int8Net) {
			rng := xrand.New(81)
			for i := range n.Layers {
				l := &n.Layers[i]
				l.PerChannel = true
				l.DeqScales = make([]float32, l.Out)
				for o := range l.DeqScales {
					l.DeqScales[o] = l.DeqScale * float32(rng.Uniform(0.5, 2))
				}
				if l.Final {
					continue
				}
				l.M0s = make([]int32, l.Out)
				l.Shifts = make([]uint, l.Out)
				for o := range l.M0s {
					l.M0s[o], l.Shifts[o] = l.M0, l.Shift+uint(rng.IntN(3))
				}
				l.M0s[0], l.Shifts[0] = 1, 0 // one zero-shift channel
			}
		}},
	}
	for i, e := range edges {
		t.Run("hand/"+e.name, func(t *testing.T) {
			int8net := handNet(xrand.New(uint64(90+i)), widths, false)
			e.edit(int8net)
			check(t, int8net, gaussianBatch(xrand.New(91), 64, widths[0], 3), []int{1, 3, 8, 64})
		})
	}
	t.Run("hand/random", func(t *testing.T) {
		rng := xrand.New(92)
		for trial := 0; trial < 200; trial++ {
			w := make([]int, 2+rng.IntN(3))
			for j := range w {
				w[j] = 1 + rng.IntN(70)
			}
			w[len(w)-1] = 1
			int8net := handNet(rng, w, rng.Bool(0.5))
			if rng.Bool(0.5) {
				int8net.Prepare()
			}
			check(t, int8net, gaussianBatch(rng, 17, w[0], 3), []int{1, 17})
		}
	})
}

// TestBatchedShardInvariance checks that splitting a batch at any boundary
// produces bitwise-identical results — the property the pipeline's sharded
// parallel inference and the serving micro-batcher rely on.
func TestBatchedShardInvariance(t *testing.T) {
	int8net, ds := convertTrained(t, false)
	n := 32
	x := nn.NewTensor(n, ds.X.Cols)
	for r := 0; r < n; r++ {
		copy(x.Row(r), ds.X.Row(r%ds.Len()))
	}
	whole := int8net.Logits(x)
	for _, cut := range []int{1, 5, 16, 31} {
		lo := nn.NewTensor(cut, x.Cols)
		hi := nn.NewTensor(n-cut, x.Cols)
		copy(lo.Data, x.Data[:cut*x.Cols])
		copy(hi.Data, x.Data[cut*x.Cols:])
		got := append(int8net.Logits(lo), int8net.Logits(hi)...)
		for i := range whole {
			if got[i] != whole[i] {
				t.Fatalf("cut %d row %d: sharded %v != whole %v", cut, i, got[i], whole[i])
			}
		}
	}
}

// TestBatchedUnprepared: a net without the Prepare cache (e.g. hand-built)
// must compute the same results and must not write the cache on the fly.
func TestBatchedUnprepared(t *testing.T) {
	int8net, ds := convertTrained(t, false)
	x := nn.NewTensor(4, ds.X.Cols)
	for r := 0; r < 4; r++ {
		copy(x.Row(r), ds.X.Row(r))
	}
	want := int8net.Logits(x)

	cold := *int8net
	cold.biasAdj = nil
	got := cold.Logits(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: unprepared %v != prepared %v", i, got[i], want[i])
		}
	}
	if cold.biasAdj != nil {
		t.Error("inference wrote the bias cache; Prepare must be the only writer")
	}
}

func TestLogitsIntoValidation(t *testing.T) {
	int8net, ds := convertTrained(t, false)
	in := ds.X.Cols

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("empty net", func() {
		var empty Int8Net
		empty.LogitsInto(nn.NewTensor(1, in), make([]float32, 1))
	})
	mustPanic("wrong feature count", func() {
		int8net.LogitsInto(nn.NewTensor(1, in+1), make([]float32, 1))
	})
	mustPanic("short output", func() {
		int8net.LogitsInto(nn.NewTensor(2, in), make([]float32, 1))
	})

	// Zero rows is a no-op, not an error.
	int8net.LogitsInto(nn.NewTensor(0, in), nil)
}
