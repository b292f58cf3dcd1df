package splpo

// The paper-scale tests live in package splpo_test, because their instances
// come through the anyopt facade, which imports this package.
var (
	ExhaustiveCounted = exhaustive
	ExhaustiveOracle  = exhaustiveOracle
	KernelTable       = kernelTable
	SolveCounted      = solve
)
