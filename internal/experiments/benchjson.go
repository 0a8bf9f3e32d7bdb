package experiments

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// benchHeader opens every BENCH_*.json record: the experiment, when it
// ran, and on what.
type benchHeader struct {
	Experiment  string `json:"experiment"`
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
}

// newBenchHeader is the header of a record of experiment run now.
func newBenchHeader(experiment string) benchHeader {
	return benchHeader{experiment, time.Now().UTC().Format(time.RFC3339),
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU()}
}

// writeBenchJSON marshals one bench record to path as indented JSON.
func writeBenchJSON(path string, rec any) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
