//go:build amd64

package nn

// linearForward computes y = x·Wᵀ + b, W stored [len(b)][x.Cols] row-major.
// On amd64 it runs the SSE kernel in linear_amd64.s: each block of four
// rows is transposed into an [In][4] panel so the vector lanes run over
// rows, and every kernel call scores the block against two outputs. One
// weight load is shared by four rows and one panel load by two outputs,
// where the scalar loop loads both operands for every multiply. SSE is the
// amd64 baseline, so no runtime feature detection is needed.
//
// The kernel keeps dot's per-lane arithmetic — stripes, tail, reduction
// order, separate multiply and add — so y is bitwise identical to
// linearForwardGeneric for any shape (TestLinearForwardMatchesGeneric,
// FuzzLinearForward).
func linearForward(y, x *Tensor, w, b []float32) {
	in, out := x.Cols, y.Cols
	// Whole blocks of four rows take the kernel. A single output has no
	// second output to share the packed panel with; there the scalar loop
	// is faster than packing.
	blocked := x.Rows &^ 3
	if out < 2 {
		blocked = 0
	}
	if blocked > 0 {
		// The panel stays on the stack up to In = 256, the paper nets' widest.
		var stack [4 * 256]float32
		panel := stack[:]
		if 4*in > len(stack) {
			panel = make([]float32, 4*in)
		}
		panel = panel[:4*in]
		var acc [8]float32
		for r := 0; r < blocked; r += 4 {
			for i := 0; i < 4; i++ {
				for k, v := range x.Row(r + i) {
					panel[4*k+i] = v // panel[4k:4k+4] is column k of the block
				}
			}
			for o := 0; o < out; o += 2 {
				o1 := min(o+1, out-1) // an odd last output is scored twice
				linearPanel(&acc, panel, w[o*in:(o+1)*in], w[o1*in:(o1+1)*in], b[o], b[o1])
				for i := 0; i < 4; i++ {
					y.Data[(r+i)*out+o] = acc[i]
					y.Data[(r+i)*out+o1] = acc[4+i]
				}
			}
		}
	}
	// Rows past the last whole block (every row when out < 2) take the
	// scalar loop.
	linearForwardGeneric(y.SliceRows(blocked, y.Rows), x.SliceRows(blocked, x.Rows), w, b)
}

// linearPanel scores one packed four-row panel p against weight rows w0 and
// w1 with biases b0 and b1: acc[i] = dot(x[i], w0) + b0 and acc[4+i] =
// dot(x[i], w1) + b1. len(p) must be 4·len(w0) and len(w1) ≥ len(w0).
//
//go:noescape
func linearPanel(acc *[8]float32, p, w0, w1 []float32, b0, b1 float32)
