package experiments

import (
	"encoding/json"
	"os"
)

// writeBenchJSON marshals one bench record to path as indented JSON.
func writeBenchJSON(path string, rec any) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
