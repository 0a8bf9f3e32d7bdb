// Command instgen writes each NF's production instance of its verified
// entry point. Every NF's per-packet logic is written once, against its
// Env interface, and that function is what symbolic execution proves;
// in production each call through Env is a dynamic dispatch Go cannot
// inline, and Go instantiates neither interface parameters nor generic
// ones per concrete type. instgen does that step at generate time: it
// copies the function's body verbatim into a process_gen.go beside the
// NF's prodEnv, as a function that takes *prodEnv instead of Env. The
// copy is the proved code with one type name changed, so the proof
// carries over; its test regenerates every instance and fails on any
// byte of difference, and each NF's differential test runs one trace
// through both.
//
// Run it with `go generate ./internal/vigor/instgen` (or `./...`) from
// anywhere in the module.
package main

//go:generate go run .

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// instance names one verified function and the package its instance is
// written to, both as module-relative directories.
type instance struct {
	src, fn, dst string
}

// instances is every NF's verified entry point.
var instances = []instance{
	{"internal/nat/stateless", "ProcessPacket", "internal/nat"},
	{"internal/firewall", "ProcessPacket", "internal/firewall"},
	{"internal/lb", "ProcessPacket", "internal/lb"},
	{"internal/policer", "ProcessPacket", "internal/policer"},
	{"internal/discard", "Iteration", "internal/discard"},
}

const (
	envType = "Env"     // the verified function's parameter type
	prodEnv = "prodEnv" // the instance takes a pointer to this type
	outFile = "process_gen.go"
)

func main() {
	root, err := moduleRoot()
	if err == nil {
		for _, in := range instances {
			var src []byte
			if src, err = generate(root, in); err != nil {
				break
			}
			if err = os.WriteFile(filepath.Join(root, in.dst, outFile), src, 0o644); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "instgen:", err)
		os.Exit(1)
	}
}

// moduleRoot is the nearest directory at or above the working directory
// holding a go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

// pkg is one package directory's non-test files, parsed.
type pkg struct {
	name  string
	fset  *token.FileSet
	files []*ast.File
	srcs  map[*ast.File][]byte
}

func parsePkg(dir string) (*pkg, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &pkg{fset: token.NewFileSet(), srcs: map[*ast.File][]byte{}}
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || n == outFile {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(p.fset, n, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.name = f.Name.Name
		p.files = append(p.files, f)
		p.srcs[f] = src
	}
	if len(p.files) == 0 {
		return nil, fmt.Errorf("%s: no Go files", dir)
	}
	return p, nil
}

// generate returns the instance file for in, reading the module at root.
func generate(root string, in instance) ([]byte, error) {
	src, err := parsePkg(filepath.Join(root, in.src))
	if err != nil {
		return nil, err
	}
	dst := src
	if in.dst != in.src {
		if dst, err = parsePkg(filepath.Join(root, in.dst)); err != nil {
			return nil, err
		}
	}
	qual := src.name + "." + in.fn
	fn, file := findFunc(src, in.fn)
	if fn == nil {
		return nil, fmt.Errorf("%s: no function %s", in.src, in.fn)
	}
	param, err := envParam(fn)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", qual, err)
	}
	if err := checkCarried(src, fn, dst); err != nil {
		return nil, fmt.Errorf("%s: %w", qual, err)
	}
	body := src.srcs[file][src.fset.Position(fn.Body.Lbrace).Offset : src.fset.Position(fn.Body.Rbrace).Offset+1]
	name := "prod" + in.fn

	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by instgen from %s; DO NOT EDIT.\n\n", qual)
	fmt.Fprintf(&b, "package %s\n\n", dst.name)
	fmt.Fprintf(&b, "// %s is %s instantiated at\n", name, qual)
	fmt.Fprintf(&b, "// *%s: the verified body, byte for byte, every env call direct.\n", prodEnv)
	fmt.Fprintf(&b, "func %s(%s *%s) %s\n", name, param, prodEnv, body)
	return format.Source(b.Bytes())
}

// findFunc returns the package-level function named name and its file.
func findFunc(p *pkg, name string) (*ast.FuncDecl, *ast.File) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == name {
				return fn, f
			}
		}
	}
	return nil, nil
}

// envParam checks that fn has the shape an instance can be cut from —
// one parameter, of type Env, and no results — and returns the
// parameter's name.
func envParam(fn *ast.FuncDecl) (string, error) {
	t := fn.Type
	if t.TypeParams != nil || t.Results != nil || len(t.Params.List) != 1 || len(t.Params.List[0].Names) != 1 {
		return "", fmt.Errorf("want func(env %s), got another signature", envType)
	}
	if id, ok := t.Params.List[0].Type.(*ast.Ident); !ok || id.Name != envType {
		return "", fmt.Errorf("its parameter is not of type %s", envType)
	}
	return t.Params.List[0].Names[0].Name, nil
}

// checkCarried refuses a body the instance could not compile to the same
// thing in package dst: one that names an imported package (the instance
// file imports nothing), or, when dst is another package, one that names
// any identifier declared at the top level of its own.
func checkCarried(p *pkg, fn *ast.FuncDecl, dst *pkg) error {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	// Only the body's own names matter, so imports resolve to empty
	// packages and the type errors that leaves are ignored.
	conf := types.Config{Importer: emptyImporter{}, Error: func(error) {}}
	tp, _ := conf.Check(p.name, p.fset, p.files, info)
	var bad []string
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.PkgName:
			bad = append(bad, fmt.Sprintf("%s (an imported package)", id.Name))
		case nil:
		default:
			if dst != p && obj.Pkg() == tp && obj.Parent() == tp.Scope() {
				bad = append(bad, fmt.Sprintf("%s (declared in package %s)", id.Name, p.name))
			}
		}
		return true
	})
	if len(bad) > 0 {
		return fmt.Errorf("body names %s, which package %s cannot see", strings.Join(bad, ", "), dst.name)
	}
	return nil
}

type emptyImporter struct{}

func (emptyImporter) Import(path string) (*types.Package, error) {
	p := types.NewPackage(path, filepath.Base(path))
	p.MarkComplete()
	return p, nil
}
