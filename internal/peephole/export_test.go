package peephole

// Unexported pieces of the pass, for the oracle tests in package
// peephole_test (which import the compile pipeline and the corpus
// generator, both of which import this package).
var (
	RemoveRedundantSpills = removeRedundantSpills
	TrialStart            = trialStart
	ToEnd                 = toEnd
)
