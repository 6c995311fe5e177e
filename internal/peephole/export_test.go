package peephole

// RemoveRedundantSpills exposes the first half of Optimize to the
// external equivalence test, which pairs it with a reference compaction.
var RemoveRedundantSpills = removeRedundantSpills
