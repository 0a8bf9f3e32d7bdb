package main

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"
)

func runArgs(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRefusesBadInput: bad generator input exits 1 with an error, before
// any socket is opened — not a panic, and not a silently different
// address.
func TestRefusesBadInput(t *testing.T) {
	ends := []string{"-int-local", "127.0.0.1:0", "-int-peer", "127.0.0.1:9", "-ext-local", "127.0.0.1:0", "-ext-peer", "127.0.0.1:9"}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "blast", "-nf", "lb", "-flows", "0"}, "-flows and -packets must be positive"},
		{[]string{"-mode", "blast", "-nf", "policer", "-packets", "-1"}, "-flows and -packets must be positive"},
		{[]string{"-flows", "0"}, "-flows and -packets must be positive"},
		{[]string{"-ext-ip", "300.1.1.1"}, `bad IPv4 address "300.1.1.1"`},
		{[]string{"-ext-ip", "198.18.1.1junk"}, `bad IPv4 address "198.18.1.1junk"`},
		{[]string{"-ext-ip", "::1"}, `bad IPv4 address "::1"`},
	} {
		code, _, stderr := runArgs(t, append(c.args, ends...)...)
		if code != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("vigwire %v: exit %d, stderr %q; want exit 1 and %q", c.args, code, stderr, c.want)
		}
	}
}

func TestUnknownModeOrNFExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "flood"},
		{"-mode", "blast", "-nf", "bogus"},
		{"-mode", "blast", "-nf", "ring"}, // a proof-only row has no cohort
		{"-mode", "oracle", "-nf", "lb"},  // the oracle is the NAT's
	} {
		if code, _, _ := runArgs(t, args...); code != 2 {
			t.Errorf("vigwire %v: exit %d, want 2", args, code)
		}
	}
}

// TestBlastSendsCohortToItsSide: the lb cohort enters on the external
// side, one datagram a frame.
func TestBlastSendsCohortToItsSide(t *testing.T) {
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	code, stdout, stderr := runArgs(t, "-mode", "blast", "-nf", "lb", "-flows", "4", "-packets", "12", "-interval", "0",
		"-ext-local", "127.0.0.1:0", "-ext-peer", sink.LocalAddr().String())
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "sent 12 lb frames (4 flows)") {
		t.Errorf("stdout %q", stdout)
	}
	buf := make([]byte, 4096)
	for i := 0; i < 12; i++ {
		_ = sink.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := sink.Read(buf); err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
	}
}
