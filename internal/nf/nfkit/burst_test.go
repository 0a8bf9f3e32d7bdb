package nfkit_test

import (
	"testing"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
)

func burstOf(n int) []nf.Pkt {
	pkts := make([]nf.Pkt, n)
	for i := range pkts {
		pkts[i] = nf.Pkt{FromInternal: true, Frame: craft(flow.ID{
			SrcIP: flow.MakeAddr(10, 0, byte(i>>8), byte(i)), SrcPort: uint16(1000 + i),
			DstIP: flow.MakeAddr(93, 184, 216, 34), DstPort: 80, Proto: flow.UDP,
		})}
	}
	return pkts
}

// TestBurstHandsEachParseToItsOwnFrame: the scratch gives a packet its
// entry only when asked for the frames in the order they were parsed,
// and an entry is what parsing the frame afresh would have produced.
func TestBurstHandsEachParseToItsOwnFrame(t *testing.T) {
	var b nfkit.Burst
	pkts := burstOf(8)
	if got := b.Fill(pkts); len(got) != len(pkts) {
		t.Fatalf("filled %d of %d", len(got), len(pkts))
	}
	var own nfkit.Parsed
	fromScratch := func(frame []byte) bool { return b.Take(frame, &own) != &own }
	for i := range pkts {
		p := b.Take(pkts[i].Frame, &own)
		if p == &own {
			t.Fatalf("packet %d: no entry", i)
		}
		var want nfkit.Parsed
		want.Parse(pkts[i].Frame)
		if p.ID != want.ID || p.Hash != want.Hash || p.Hash != p.ID.Hash() || !p.Pkt.NATable() {
			t.Fatalf("packet %d: entry %+v, fresh parse %+v", i, p, want)
		}
	}
	if fromScratch(pkts[0].Frame) {
		t.Fatal("a drained scratch handed out an entry")
	}
	if own.ID != b.Fill(pkts)[0].ID {
		t.Fatal("the fallback did not parse the frame")
	}

	// Out of order: the scratch disarms rather than guess.
	b.Fill(pkts)
	if fromScratch(pkts[1].Frame) {
		t.Fatal("packet 1 was handed packet 0's entry")
	}
	if fromScratch(pkts[0].Frame) {
		t.Fatal("a disarmed scratch handed out an entry")
	}

	// A same-length copy of the right frame is still not the frame.
	b.Fill(pkts)
	if fromScratch(append([]byte(nil), pkts[0].Frame...)) {
		t.Fatal("an entry went to a frame it was not parsed from")
	}

	// A burst longer than the scratch: the tail parses for itself.
	long := burstOf(100)
	kept := len(b.Fill(long))
	if kept == 0 || kept >= len(long) {
		t.Fatalf("kept %d entries of a %d-packet burst", kept, len(long))
	}
	for i := range long {
		if got := fromScratch(long[i].Frame); got != (i < kept) {
			t.Fatalf("packet %d of a long burst: entry=%v", i, got)
		}
	}
}

// TestAdapterRunsPrefetchOncePerBurst: the derived batch path calls the
// hook once, before the first packet, with the whole burst and its
// timestamp — and not at all for a lone packet, which has nothing to
// overlap with.
func TestAdapterRunsPrefetchOncePerBurst(t *testing.T) {
	type core struct{ log []int }
	d := nfkit.Decl[*core]{
		Name: "probe",
		Prefetch: func(c *core, pkts []nf.Pkt, now libvig.Time) {
			c.log = append(c.log, -len(pkts), int(now))
		},
		Process: func(c *core, _ []byte, _ bool, _ libvig.Time) nf.Verdict {
			c.log = append(c.log, 1)
			return nf.Forward
		},
		Stats: func([]uint64) nf.Stats { return nf.Stats{} },
	}
	c := &core{}
	a := d.Adapt(c)
	verdicts := make([]nf.Verdict, 3)
	a.ProcessBatchAt(burstOf(3), verdicts, 42)
	a.ProcessBatchAt(burstOf(1), verdicts, 43)
	want := []int{-3, 42, 1, 1, 1, 1}
	if len(c.log) != len(want) {
		t.Fatalf("call log %v, want %v", c.log, want)
	}
	for i := range want {
		if c.log[i] != want[i] {
			t.Fatalf("call log %v, want %v", c.log, want)
		}
	}
}
