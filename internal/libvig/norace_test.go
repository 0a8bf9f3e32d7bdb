//go:build !race

package libvig

const raceEnabled = false
