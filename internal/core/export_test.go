package core

// RaceEnabled exposes the race-build flag to the external core_test
// package.
const RaceEnabled = raceEnabled
