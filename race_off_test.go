//go:build !race

package treejoin_test

const raceEnabled = false
