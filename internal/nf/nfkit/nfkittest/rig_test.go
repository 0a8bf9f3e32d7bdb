package nfkittest_test

import (
	"os"
	"testing"

	"vignat/internal/libvig"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
)

// pass forwards every packet.
type pass struct{}

func (pass) Name() string { return "pass" }

func (pass) ProcessBatch(pkts []nf.Pkt, verdicts []nf.Verdict) {
	for i := range pkts {
		verdicts[i] = nf.Forward
	}
}

func (pass) Expire(libvig.Time) int { return 0 }
func (pass) NFStats() nf.Stats      { return nf.Stats{} }

// TestNewRigFailureCleansUp: a rig the engine refuses comes back as an
// error on every transport, and the socket rigs' sockets and directory
// are gone.
func TestNewRigFailureCleansUp(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, transport := range []string{"mem", "udp", "unix"} {
		r, err := nfkittest.NewRig(pass{}, transport, 1, nf.Config{FastPath: -1, Clock: libvig.NewVirtualClock(0)})
		if err == nil || r != nil {
			t.Errorf("%s: a negative flow-cache size gave rig %v, error %v", transport, r, err)
		}
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("failed rigs left %d entries in the temp directory (%v)", len(left), err)
	}
}
