package localize

// SyntheticRings and BenchWorkload expose the ring builders to the
// external localize_test package.
var (
	SyntheticRings = syntheticRings
	BenchWorkload  = benchWorkload
)
