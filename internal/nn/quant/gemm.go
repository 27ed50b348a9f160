package quant

import (
	"fmt"
	"slices"

	"repro/internal/nn"
)

// This file is the batched integer inference path. Each row runs through
// every layer on the packed-panel kernel (panel.go): one panelDot call
// scores the row against all of a layer's outputs, sixteen per pass, on
// int16 activation codes, and a branch-free scalar loop requantizes the
// accumulators into the next layer's codes. The panels and the
// zero-point-folded biases are derived once (Prepare), and the per-call
// scratch is sized by the widest layer, not by rows × width. No float is
// touched until the final logit.
//
// Determinism: every operation is exact integer arithmetic, so the result
// of a row is independent of the batch it rides in and of any row-range
// sharding — batched inference is bitwise-identical to per-row Logit calls
// at any batch size and worker count.

// Prepare computes the derived state of the batched path: each layer's
// packed int16 weight panels (packPanel) and its zero-point-folded biases
//
//	biasAdj[o] = Bias[o] − InZero·Σᵢ W[o·In+i]
//
// so the kernel computes a plain Σ xᵢ·wᵢ over raw int8 codes with no
// per-element zero-point subtraction. The fold is exact integer algebra,
// so results are bitwise-identical to the unfolded form used by Logit.
//
// Convert calls Prepare at construction time, and models.LoadBundle calls
// it after gob decoding (gob skips the unexported caches). A hand-built
// Int8Net that skips Prepare derives both per call instead (never writing
// the caches, so concurrent first calls stay race-free). An Int8Net must
// not be mutated after its first inference.
func (n *Int8Net) Prepare() {
	n.biasAdj, n.panels = n.derived()
}

// derived returns the cached per-layer biases and panels, computing
// whichever cache is missing without storing it.
func (n *Int8Net) derived() ([][]int64, [][]int16) {
	adj, panels := n.biasAdj, n.panels
	if adj == nil {
		adj = make([][]int64, len(n.Layers))
		for li := range n.Layers {
			adj[li] = biasAdjusted(&n.Layers[li])
		}
	}
	if panels == nil {
		panels = make([][]int16, len(n.Layers))
		for li := range n.Layers {
			panels[li] = packPanel(&n.Layers[li])
		}
	}
	return adj, panels
}

// biasAdjusted returns the zero-point-folded bias vector of one layer.
func biasAdjusted(l *Int8Layer) []int64 {
	adj := make([]int64, l.Out)
	for o := 0; o < l.Out; o++ {
		var sw int32
		for _, w := range l.W[o*l.In : (o+1)*l.In] {
			sw += int32(w)
		}
		adj[o] = int64(l.Bias[o]) - int64(l.InZero)*int64(sw)
	}
	return adj
}

// Logits runs batched integer inference and returns one float logit per
// row of x.
func (n *Int8Net) Logits(x *nn.Tensor) []float32 {
	out := make([]float32, x.Rows)
	n.LogitsInto(x, out)
	return out
}

// LogitsInto is Logits writing into out, which must have exactly x.Rows
// slots. It is safe for concurrent use; sharded callers (the pipeline's
// parallel inference, the serving micro-batcher) get bitwise-identical
// results at any shard boundary.
func (n *Int8Net) LogitsInto(x *nn.Tensor, out []float32) {
	if len(n.Layers) == 0 {
		panic("quant: empty Int8Net")
	}
	if x.Cols != n.Layers[0].In {
		panic(fmt.Sprintf("quant: Int8Net expects %d features, got %d", n.Layers[0].In, x.Cols))
	}
	if len(out) != x.Rows {
		panic("quant: LogitsInto output length must equal x.Rows")
	}
	if x.Rows == 0 {
		return
	}
	last := &n.Layers[len(n.Layers)-1]
	if !last.Final || last.Out != 1 {
		panic("quant: Int8Net final layer must be a single-output Final layer")
	}
	adj, panels := n.derived()
	// Rows stop at the first Final layer, as in Logit; its output 0 is the
	// logit.
	fin := slices.IndexFunc(n.Layers, func(l Int8Layer) bool { return l.Final })
	scale := n.Layers[fin].DeqScale
	if n.Layers[fin].PerChannel {
		scale = n.Layers[fin].DeqScales[0]
	}

	// Two ping-pong activation rows and one accumulator row, each sized
	// for the widest layer.
	width, accWidth := 0, 0
	for li := range n.Layers[:fin+1] {
		in, outs := panelWidths(&n.Layers[li])
		width, accWidth = max(width, in), max(accWidth, outs)
	}
	scratch := make([]int16, 2*width)
	cur, next := scratch[:width], scratch[width:]
	acc := make([]int32, accWidth)

	for r := range out {
		for i, f := range x.Row(r) {
			cur[i] = int16(n.Input.Quantize(f))
		}
		for li := range n.Layers[:fin] {
			l := &n.Layers[li]
			in, outs := panelWidths(l)
			panelDot(acc[:outs], cur[:in], panels[li])
			l.requantizeRow(next[:l.Out], acc, adj[li])
			cur, next = next, cur
		}
		in, outs := panelWidths(&n.Layers[fin])
		panelDot(acc[:outs], cur[:in], panels[fin])
		out[r] = float32(adj[fin][0]+int64(acc[0])) * scale
	}
}

// requantizeRow writes a hidden layer's output codes, widened to int16,
// from its raw accumulators: y[o] = max(requantize(bias[o]+acc[o]), floor),
// where floor is the ReLU floor (OutZero clamped to int8) or −128 without
// ReLU. Flooring after the saturating requantization equals Logit's
// "below OutZero → OutZero" for any OutZero, inside int8 or not.
func (l *Int8Layer) requantizeRow(y []int16, acc []int32, bias []int64) {
	floor := int32(-128)
	if l.ReLU {
		floor = int32(clampInt8(l.OutZero))
	}
	acc, bias = acc[:len(y)], bias[:len(y)]
	if l.PerChannel {
		m0s, shifts := l.M0s[:len(y)], l.Shifts[:len(y)]
		for o := range y {
			y[o] = int16(max(int32(requantize(bias[o]+int64(acc[o]), m0s[o], shifts[o], l.OutZero)), floor))
		}
		return
	}
	rq := newRequantizer(l.M0, l.Shift, l.OutZero)
	for o := range y {
		y[o] = int16(max(int32(rq.apply(bias[o]+int64(acc[o]))), floor))
	}
}

// Probs runs batched integer inference and applies the float sigmoid per
// row. Together with ProbsInto it satisfies the pipeline's BkgClassifier
// contract, so an Int8Net can be injected directly as a background
// classifier.
func (n *Int8Net) Probs(x *nn.Tensor) []float32 {
	out := make([]float32, x.Rows)
	n.ProbsInto(x, out)
	return out
}

// ProbsInto is Probs writing into a caller-owned buffer (the pipeline's
// allocation-free sharded fast path).
func (n *Int8Net) ProbsInto(x *nn.Tensor, out []float32) {
	n.LogitsInto(x, out)
	for i, v := range out {
		out[i] = nn.Sigmoid(v)
	}
}
