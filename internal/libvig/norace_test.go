//go:build !race

package libvig_test

const raceEnabled = false
