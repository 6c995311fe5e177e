package aviv

// CorpusProgramText is exported for the external (package aviv_test)
// differential tests: the server diff harness compares against the same
// compiled corpus the in-package property tests use.
var CorpusProgramText = corpusProgramText
