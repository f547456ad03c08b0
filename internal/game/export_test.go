package game

// ReferenceSweep exposes referenceSweep to the package's external tests.
var ReferenceSweep = referenceSweep
