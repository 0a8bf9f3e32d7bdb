package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"vignat/internal/flow"
	"vignat/internal/netstack"
)

// stubNF stands where the NF would while the generator is pinned: it
// "translates" outbound packets the way a NAT and a balancer would, but
// by rote — ports in order, backends in turn — so the digest below is
// the generator's alone and survives any change to the NFs.
func stubNF(extIP flow.Addr) sendFunc {
	port := uint16(0)
	return func(p *pkt) ([]byte, error) {
		if !p.fromInternal {
			return nil, nil
		}
		id, err := tupleOf(p.frame)
		if err != nil {
			return nil, err
		}
		port++
		id.SrcIP, id.SrcPort = extIP, port
		if id.DstIP == gwVIP {
			id.DstIP = gwBackends[int(port)%len(gwBackends)]
		}
		return craft(id, len(p.frame)).frame, nil
	}
}

// digest hashes a workload's first n frames with their side and expected
// verdict, and checks on the way that every frame is well-formed.
func digest(t *testing.T, w string, seed int64, n int) string {
	t.Helper()
	ext := natExtIP
	if w == "gateway_chain" {
		ext = gwExtIP
	}
	src := newSource(w, seed, false)
	if err := src.establish(stubNF(ext)); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	burst := make([]pkt, burstSize)
	for done := 0; done < n; done += len(burst) {
		src.next(burst)
		for i := range burst {
			p := &burst[i]
			var q netstack.Packet
			if err := q.Parse(p.frame); err != nil || !q.NATable() || !q.VerifyIPChecksum() || !q.VerifyL4Checksum() {
				t.Fatalf("%s: frame %d is malformed or its checksums are off after stamping (%v)", w, done+i, err)
			}
			if _, ok := readStamp(p.frame, p.stampOff); !ok {
				t.Fatalf("%s: frame %d carries no stamp", w, done+i)
			}
			h.Write(p.frame)
			h.Write([]byte{b2i(p.fromInternal), b2i(p.forward)})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func b2i(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// TestGoldenDigest pins the generated traffic: the same seed must mean
// the same bytes on every commit the benchmark compares, or the
// comparison is of two different workloads.
func TestGoldenDigest(t *testing.T) {
	golden := map[string]string{
		"nat_established": "6dffafdc91ee3c64bab1d58add7a62407145f986f16cbc9df793284b9b4dd814",
		"nat_churn":       "a330bad021810b7a20d2d26d00b4758da1c775b9892a384eb5d7e463dcc74576",
		"gateway_chain":   "a1fd01a2f46d309514c44f1ea23c27762ceb26965df00391f843d2adc7196b22",
	}
	for w, want := range golden {
		got := digest(t, w, 1, 1<<16)
		if got != want {
			t.Errorf("%s seed 1: digest %s, want %s", w, got, want)
		}
		if other := digest(t, w, 2, 1<<12); other == digest(t, w, 1, 1<<12) {
			t.Errorf("%s: seeds 1 and 2 generate the same traffic", w)
		}
	}
}

// TestWireFlowsFollowSeed does the same for nat_wire, whose frames are
// its flows' templates.
func TestWireFlowsFollowSeed(t *testing.T) {
	tuples := func(seed int64) (ids []flow.ID) {
		r := newRng(seed, 4)
		for i := range wireFlows {
			ids = append(ids, natFlowID(&r, 10, i))
		}
		return ids
	}
	a, b := tuples(1), tuples(1)
	c := tuples(2)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs between two draws of seed 1", i)
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > wireFlows/100 {
		t.Errorf("seeds 1 and 2 share %d of %d flows", same, wireFlows)
	}
}
