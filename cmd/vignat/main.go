// Command vignat is the one NF daemon: it serves whichever row of
// internal/catalog -nf names — nat (the default), firewall, lb,
// policer, discard, or the gateway chain (firewall → policer → lb →
// nat) — on the shared nf.Pipeline engine, either over in-memory ports
// fed the row's built-in traffic (prints the engine's end-of-run
// accounting) or, with -transport udp|unix, as a daemon on kernel
// sockets whose peer process (cmd/vigwire) is the wire.
//
// Usage:
//
//	vignat [-nf NAME] [-flows N] [-packets N] [-timeout D] [-capacity N]
//	       [-shards N] [-workers N] [-metrics addr] [-telemetry]
//	       [-verify] [-backends N] [-rate B/s] [-bucket B] ...
//
// -shards > 1 partitions the NF RSS-style: each shard owns a disjoint
// slice of the state (for the NAT, of the flow table and of the
// external port range), so steering by flow hash always lands a
// session on the same shard with no locks. -workers > 1 (default: one
// per shard) gives each worker its own RX/TX queue pair on both ports,
// its own per-queue mempools, and its own goroutine running the
// run-to-completion loop.
//
// With -verify (the default) the binary first proves what it is about
// to run — the declaration of the very NF it built, at this
// configuration, each element's for the gateway — and refuses to start
// on a failed proof: the
// deployment story the paper argues for, the artifact you run is the
// artifact you proved. An unknown -nf exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vignat/internal/catalog"
	"vignat/internal/libvig"
	"vignat/internal/nf/nfkit"
)

func main() {
	os.Exit(run(catalog.Rows, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the daemon over rows: its exit status.
func run(rows []catalog.Row, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vignat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &catalog.Options{}
	o.Register(fs)
	name := fs.String("nf", "nat", "NF to serve: nat, firewall, lb, policer, discard or gateway")
	verify := fs.Bool("verify", true, "prove the NF before starting")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "vignat: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	row, ok := catalog.Find(rows, *name)
	if !ok || row.New == nil {
		fmt.Fprintf(stderr, "vignat: unknown nf %q\n", *name)
		return 2
	}
	build := row.Build(o)
	if *verify {
		build = proved(stdout, row.Name, build)
	}
	if err := nfkit.Serve(stdout, "vignat", &o.Options, build); err != nil {
		fmt.Fprintf(stderr, "vignat: %v\n", err)
		return 1
	}
	return 0
}

// proved is build followed by the proof of every declaration the NF it
// built runs (each element's for a chain), one summary printed each: a
// failed proof fails the build, so nothing unproven is ever served.
func proved(w io.Writer, name string, build nfkit.Build) nfkit.Build {
	return func(clock libvig.Clock) (*nfkit.Run, error) {
		run, err := build(clock)
		if err != nil {
			return nil, err
		}
		proofs := catalog.ProofsOf(name, run.NF)
		if len(proofs) == 0 {
			return nil, fmt.Errorf("refusing to start %s: it declares nothing to prove", name)
		}
		for _, p := range proofs {
			rep, err := nfkit.VerifySym(*p.Sym, nfkit.ModelExact, 0)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "%s: %s\n", p.Name, rep.Summary())
			if !rep.OK() {
				return nil, fmt.Errorf("refusing to start an unproven %s", p.Name)
			}
		}
		return run, nil
	}
}
