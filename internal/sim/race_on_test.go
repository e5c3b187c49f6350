//go:build race

package sim

// raceDetector says the tests were built with -race, under which sync.Pool
// drops items at random and allocation counts stop repeating.
const raceDetector = true
