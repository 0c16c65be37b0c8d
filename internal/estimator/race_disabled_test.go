//go:build !race

package estimator_test

const raceEnabled = false
