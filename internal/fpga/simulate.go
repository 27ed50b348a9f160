package fpga

// Simulate runs a cycle-level event simulation of the synthesized dataflow
// pipeline for n back-to-back inputs and returns the cycle at which the last
// output leaves the kernel. It models each stage as a pipelined unit that
// accepts a new input every stage.II cycles and emits it stage.Latency
// cycles later, with stages decoupled by FIFOs (the HLS DATAFLOW model) and
// the kernel-level II including the inter-stage handshake overhead.
//
// For a correct Report the result equals Report.TotalCycles(n); the
// simulator exists to validate that closed form (see the package tests) and
// to support experiments with irregular arrival patterns.
func Simulate(r Report, n int) int {
	if n <= 0 {
		return 0
	}
	// ready[s] is the earliest cycle stage s can accept its next input.
	ready := make([]int, len(r.Stages))
	// The kernel-level handshake adds one cycle per stage boundary to the
	// effective per-stage II (this is what Report.II = max(stage II) + #stages
	// accounts for); distribute it as one extra cycle per stage.
	var finish int
	for i := 0; i < n; i++ {
		t := arrivalCycle(i) // inputs arrive back-to-back
		for s := range r.Stages {
			if t < ready[s] {
				t = ready[s]
			}
			ready[s] = t + r.Stages[s].II + 1 // +1 handshake
			t += r.Stages[s].Latency
		}
		finish = t + interfaceOverheadCycles
	}
	return finish
}

// arrivalCycle is the cycle input i is presented to the kernel; inputs are
// streamed back-to-back.
func arrivalCycle(i int) int { return i }

// BackgroundNetLayers returns the fused layer dimensions of the paper's
// background network kernel for in input features: the three hidden fused
// Linear+BN+ReLU stages and the final Linear (the output sigmoid is elided;
// §V applies the threshold in the logit domain instead).
func BackgroundNetLayers(in int) []LayerDims {
	return []LayerDims{
		{In: in, Out: 256},
		{In: 256, Out: 128},
		{In: 128, Out: 64},
		{In: 64, Out: 1},
	}
}
