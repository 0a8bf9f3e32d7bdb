package main

import (
	"bytes"
	"strings"
	"testing"

	"vignat/internal/catalog"
	"vignat/internal/discard"
	"vignat/internal/libvig"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
)

func runArgs(t *testing.T, rows []catalog.Row, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(rows, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestEveryDaemonRowServes runs every servable row in memory: each
// proves, prints one proof summary per declaration, and ends with clean
// mbuf accounting.
func TestEveryDaemonRowServes(t *testing.T) {
	for _, row := range catalog.Rows {
		if row.New == nil {
			continue
		}
		t.Run(row.Name, func(t *testing.T) {
			code, stdout, stderr := runArgs(t, catalog.Rows, "-nf", row.Name, "-packets", "4000", "-flows", "200")
			if code != 0 {
				t.Fatalf("exit %d: %s\n%s", code, stderr, stdout)
			}
			proofs, err := row.Proofs(catalog.Defaults())
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(stdout, "PROOF COMPLETE"); n != len(proofs) {
				t.Errorf("%d proof summaries, want %d:\n%s", n, len(proofs), stdout)
			}
			if !strings.Contains(stdout, "on mem transport") || !strings.Contains(stdout, " rx=4000 ") || !strings.HasSuffix(stdout, "mbuf accounting clean (no leaks)\n") {
				t.Errorf("report:\n%s", stdout)
			}
		})
	}
}

func TestUnknownNFExits2(t *testing.T) {
	for _, name := range []string{"bogus", "ring", "lb-passthrough"} {
		if code, _, _ := runArgs(t, catalog.Rows, "-nf", name); code != 2 {
			t.Errorf("-nf %s: exit %d, want 2 (not a servable row)", name, code)
		}
	}
}

// TestRefusesUnprovenNF: a row whose NF is declared with a spec it does
// not meet — here the discard NF, declared to forward port 9 — is never
// served.
func TestRefusesUnprovenNF(t *testing.T) {
	row, _ := catalog.Find(catalog.Rows, "discard")
	bad := *row
	bad.New = func(o *catalog.Options, _ libvig.Clock) (*nfkit.Run, error) {
		decl := discard.Kit()
		sym := *decl.Sym
		sym.Spec = func(p *nfkit.SymPath) (telemetry.ReasonID, error) {
			return p.Judge("every frame", "forward", discard.ReasonFwd)
		}
		decl.Sym = &sym
		d, err := nfkit.NewSharded(decl, o.Shards)
		return &nfkit.Run{NF: d}, err
	}
	code, stdout, stderr := runArgs(t, []catalog.Row{bad}, "-nf", "discard", "-packets", "100")
	if code != 1 || !strings.Contains(stdout, "PROOF FAILED") || !strings.Contains(stderr, "refusing to start an unproven discard") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want a failed proof and a refusal", code, stdout, stderr)
	}
	if strings.Contains(stdout, "transport") {
		t.Fatalf("served an unproven NF:\n%s", stdout)
	}
	// The same row with -verify=false runs: the refusal was the proof's.
	if code, _, stderr := runArgs(t, []catalog.Row{bad}, "-nf", "discard", "-packets", "100", "-verify=false"); code != 0 {
		t.Fatalf("-verify=false: exit %d: %s", code, stderr)
	}
}

// TestCapacityIsPerShardMap: a libVig map holds at most 65,535 keys, so
// one firewall shard refuses -capacity 70000 at start and names the
// limit, while two shards of 35,000 each start.
func TestCapacityIsPerShardMap(t *testing.T) {
	code, stdout, stderr := runArgs(t, catalog.Rows, "-nf", "firewall", "-capacity", "70000", "-packets", "100", "-flows", "10")
	if code != 1 || !strings.Contains(stderr, "at most 65,535 per map (per shard)") {
		t.Fatalf("one shard: exit %d, stderr %q; want a refusal naming the limit", code, stderr)
	}
	if strings.Contains(stdout, "transport") {
		t.Fatalf("served a refused configuration:\n%s", stdout)
	}
	code, stdout, stderr = runArgs(t, catalog.Rows, "-nf", "firewall", "-capacity", "70000", "-shards", "2", "-packets", "100", "-flows", "10")
	if code != 0 || !strings.HasSuffix(stdout, "mbuf accounting clean (no leaks)\n") {
		t.Fatalf("two shards: exit %d: %s\n%s", code, stderr, stdout)
	}
}
