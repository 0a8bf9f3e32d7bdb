//go:build race

package libvig

// raceEnabled: the race detector shadows every byte the program writes,
// so resident-set growth no longer measures the program's own memory.
const raceEnabled = true
