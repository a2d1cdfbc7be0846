package presentation

// The oracles, for the engine-level differential in package
// presentation_test: it imports the engine, which imports this package.
var (
	ExplainCFOracle      = explainCFOracle
	ExplainGroupCFOracle = explainGroupCFOracle
)
