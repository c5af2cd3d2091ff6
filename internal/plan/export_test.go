package plan

// SampleTree exposes the internal tests' sample plan to the external ones.
var SampleTree = sampleTree
