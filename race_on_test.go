//go:build race

package treejoin_test

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of Puts, so pooled buffers are reallocated at random.
const raceEnabled = true
