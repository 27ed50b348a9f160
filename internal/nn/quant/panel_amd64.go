//go:build amd64

package quant

// panelDot computes y[o] = Σᵢ x[i]·w[o][i] over a packed panel (see
// panelDotGeneric for the shapes). On amd64 it is the SSE2 kernel in
// panel_amd64.s: for each input pair it broadcasts (x[2k], x[2k+1]) to
// four lanes and runs four PMADDWD against the panel's sixteen outputs,
// eight multiplies per instruction. SSE2 is the amd64 baseline, so no
// runtime feature detection is needed.
//
// Exactness: with int8-range operands each PMADDWD lane is at most
// 2·128² = 2¹⁵, and PMADDWD's one wrapping case (both pairs −32768·−32768)
// wraps the same way as the int32 reference. Integer sums do not depend on
// order, so y equals panelDotGeneric bit for bit (TestPanelDotMatchesGeneric,
// FuzzPanelDot).
//
//go:noescape
func panelDot(y []int32, x, w []int16)
