package moongen

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/netstack"
)

func TestMakeFlowsDistinct(t *testing.T) {
	flows, err := MakeFlows(0, 5000, 0, flow.UDP)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[flow.ID]bool{}
	for i := range flows {
		if seen[flows[i].ID] {
			t.Fatalf("duplicate flow %v", flows[i].ID)
		}
		seen[flows[i].ID] = true
		if flows[i].ID.DstIP != ServerIP || flows[i].ID.DstPort != ServerPort {
			t.Fatal("flow not aimed at the server")
		}
	}
}

func TestMakeFlowsFramesParse(t *testing.T) {
	flows, err := MakeFlows(100, 10, 26, flow.TCP)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		var p netstack.Packet
		if err := p.Parse(flows[i].Frame()); err != nil {
			t.Fatal(err)
		}
		if !p.NATable() || p.FlowID() != flows[i].ID {
			t.Fatalf("frame %d does not match its flow", i)
		}
		if !p.VerifyIPChecksum() || !p.VerifyL4Checksum() {
			t.Fatalf("frame %d has bad checksums", i)
		}
	}
}

func TestMakeFlowsValidation(t *testing.T) {
	if _, err := MakeFlows(0, 0, 0, flow.UDP); err == nil {
		t.Fatal("zero flows accepted")
	}
	if _, err := MakeFlows(-1, 5, 0, flow.UDP); err == nil {
		t.Fatal("negative first accepted")
	}
}

func TestReplyFrame(t *testing.T) {
	ext := flow.ID{
		SrcIP: flow.MakeAddr(198, 18, 1, 1), SrcPort: 4242,
		DstIP: ServerIP, DstPort: ServerPort, Proto: flow.UDP,
	}
	buf := make([]byte, 2048)
	f := ReplyFrame(buf, ext)
	var p netstack.Packet
	if err := p.Parse(f); err != nil {
		t.Fatal(err)
	}
	if p.FlowID() != ext.Reverse() {
		t.Fatalf("reply tuple %v want %v", p.FlowID(), ext.Reverse())
	}
}

func TestScheduleRates(t *testing.T) {
	// 1 second at 10k pps background + 100 pps probe.
	s, err := NewSchedule(10, 10000, 5, 100, int64(time.Second), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	bg, pr := 0, 0
	last := int64(-1)
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		if ev.Time < last {
			t.Fatal("schedule not time-ordered")
		}
		last = ev.Time
		if ev.Probe {
			pr++
			if ev.Flow < 10 || ev.Flow >= 15 {
				t.Fatalf("probe flow index %d out of range", ev.Flow)
			}
		} else {
			bg++
			if ev.Flow < 0 || ev.Flow >= 10 {
				t.Fatalf("bg flow index %d out of range", ev.Flow)
			}
		}
	}
	if bg < 9990 || bg > 10000 {
		t.Fatalf("background packets %d, want ~10000", bg)
	}
	if pr < 99 || pr > 101 {
		t.Fatalf("probe packets %d, want ~100", pr)
	}
}

func TestScheduleRoundRobin(t *testing.T) {
	s, _ := NewSchedule(3, 3000, 0, 0, int64(10*time.Millisecond), 1, 0)
	want := 0
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		if ev.Flow != want {
			t.Fatalf("round robin broken: %d want %d", ev.Flow, want)
		}
		want = (want + 1) % 3
	}
}

func TestScheduleJitterDeterministic(t *testing.T) {
	collect := func() []int64 {
		s, _ := NewSchedule(4, 100000, 2, 50, int64(5*time.Millisecond), 7, 300)
		var ts []int64
		for {
			ev, ok := s.Next()
			if !ok {
				return ts
			}
			ts = append(ts, ev.Time)
		}
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatal("jittered schedules diverge in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("jittered schedule not deterministic for equal seeds")
		}
	}
}

func TestLatencyRecorderStats(t *testing.T) {
	r := NewLatencyRecorder(8)
	for _, v := range []int{5, 1, 9, 3, 7} {
		r.Record(time.Duration(v) * time.Microsecond)
	}
	if r.Count() != 5 {
		t.Fatal("count")
	}
	if r.TrimmedMean(0) != 5*time.Microsecond {
		t.Fatalf("mean %v", r.TrimmedMean(0))
	}
	if r.Quantile(0) != time.Microsecond || r.Quantile(1) != 9*time.Microsecond {
		t.Fatal("quantile extremes")
	}
	if r.Quantile(0.5) != 5*time.Microsecond {
		t.Fatalf("median %v", r.Quantile(0.5))
	}
}

func TestLatencyRecorderTrimmedMean(t *testing.T) {
	r := NewLatencyRecorder(101)
	for i := 0; i < 100; i++ {
		r.Record(time.Microsecond)
	}
	r.Record(time.Second) // one artifact
	if r.TrimmedMean(0) < time.Millisecond {
		t.Fatal("untrimmed mean should be dominated by the artifact")
	}
	if got := r.TrimmedMean(0.02); got != time.Microsecond {
		t.Fatalf("trimmed mean %v", got)
	}
}
