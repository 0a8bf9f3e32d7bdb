package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInstancesFresh regenerates every instance and demands the
// committed file byte for byte: an edit to a verified function that was
// not followed by `go generate`, or an edit to an instance by hand,
// fails here.
func TestInstancesFresh(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range instances {
		want, err := generate(root, in)
		if err != nil {
			t.Fatalf("%s.%s: %v", in.src, in.fn, err)
		}
		got, err := os.ReadFile(filepath.Join(root, in.dst, outFile))
		if err != nil {
			t.Fatalf("%s: %v (run go generate ./internal/vigor/instgen)", in.dst, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s/%s is stale or was edited by hand: run go generate ./internal/vigor/instgen", in.dst, outFile)
		}
	}
}

// TestGenerateRefuses: a body the instance could not carry unchanged is
// refused, never copied. The fixture's functions name a package-level
// constant, an imported package, or have another shape.
func TestGenerateRefuses(t *testing.T) {
	root := "testdata"
	for _, c := range []struct {
		in   instance
		want string // in the error; "" means accepted
	}{
		{instance{"leaky", "Clean", "sink"}, ""},
		{instance{"leaky", "NamesConst", "leaky"}, ""}, // its own package can see it
		{instance{"leaky", "NamesConst", "sink"}, "limit (declared in package leaky)"},
		{instance{"leaky", "NamesImport", "leaky"}, "strings (an imported package)"},
		{instance{"leaky", "TwoParams", "leaky"}, "another signature"},
		{instance{"leaky", "WrongType", "leaky"}, "not of type Env"},
		{instance{"leaky", "Missing", "leaky"}, "no function Missing"},
	} {
		src, err := generate(root, c.in)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s into %s: %v", c.in.fn, c.in.dst, err)
		case c.want == "" && !bytes.Contains(src, []byte("func prod"+c.in.fn+"(env *prodEnv) {")):
			t.Errorf("%s into %s: no instance in\n%s", c.in.fn, c.in.dst, src)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s into %s: error %v, want one naming %q", c.in.fn, c.in.dst, err, c.want)
		}
	}
}
