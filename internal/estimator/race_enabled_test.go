//go:build race

package estimator_test

// raceEnabled reports that the race detector instruments this build; the
// allocation guard is skipped there (sync.Pool intentionally drops
// entries under -race, so pooled vectors reallocate per batch).
const raceEnabled = true
