//go:build race

package main

// raceDetector says the tests were built with -race, under which the smoke
// pass runs an order of magnitude slower and its time budget does not apply.
const raceDetector = true
