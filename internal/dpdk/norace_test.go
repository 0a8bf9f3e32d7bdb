//go:build !race

package dpdk

const raceEnabled = false
