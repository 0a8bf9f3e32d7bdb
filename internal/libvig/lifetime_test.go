package libvig_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"testing"
)

// lifetimeDirs are the packages that call Make, by directory from this
// one, with their import paths.
var lifetimeDirs = map[string]string{
	".":           "vignat/internal/libvig",
	"../fastpath": "vignat/internal/fastpath",
	"../dpdk":     "vignat/internal/dpdk",
}

// makeSites is every Make call site: package/file, function, and the
// field that keeps the result. A new site is added here on purpose.
var makeSites = []string{
	"dpdk/mbuf.go NewMempool -> Mbuf.Data (holds *Mempool)",
	"fastpath/gen.go NewGenTable -> GenTable.gens",
	"fastpath/table.go NewTable -> Table.door",
	"fastpath/table.go NewTable -> Table.entries",
	"fastpath/table.go NewTable -> Table.tags",
	"libvig/cht.go NewCHT -> CHT.table",
	"libvig/dchain.go NewDChain -> DChain.alloc",
	"libvig/dchain.go NewDChain -> DChain.next",
	"libvig/dchain.go NewDChain -> DChain.prev",
	"libvig/dchain.go NewDChain -> DChain.timestamps",
	"libvig/dmap.go newDoubleMap -> DoubleMap.busy",
	"libvig/dmap.go newDoubleMap -> DoubleMap.vals",
	"libvig/hmap.go newMap -> Map.keys",
	"libvig/hmap.go newMap -> Map.slots",
	"libvig/tokenbucket.go NewTokenBucket -> TokenBucket.last",
	"libvig/tokenbucket.go NewTokenBucket -> TokenBucket.levels",
}

// lifetimePkg is one type-checked package of lifetimeDirs.
type lifetimePkg struct {
	name  string // the import path's last element
	files []*ast.File
	info  *types.Info
}

// TestMakeLifetimes holds Make's lifetime rule statically: an array Make
// carves from a Backing is valid while that Backing is reachable, so
// whatever keeps the array must keep its owner, the struct holding the
// Backing. Over every non-test file of the packages that call Make, it
// checks that
//   - each result is stored in a field of the struct whose Backing was
//     passed (or, for the mbuf slab, sliced into a field of a struct
//     that points to that owner);
//   - no exported function returns such a field, whole or sliced;
//   - no function literal reaches such a field except through its
//     owner: none captures a variable that holds the array, a slice of
//     it or an element pointer.
func TestMakeLifetimes(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*lifetimePkg
	for dir, path := range lifetimeDirs {
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := &lifetimePkg{name: filepath.Base(path), info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, f := range bp.GoFiles {
			file, err := parser.ParseFile(fset, filepath.Join(dir, f), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			p.files = append(p.files, file)
		}
		if _, err := (&types.Config{Importer: imp}).Check(path, fset, p.files, p.info); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}

	guarded := map[*types.Var]string{} // owner field -> "Owner.field"
	var sites []string
	for _, p := range pkgs {
		for _, file := range p.files {
			fname := p.name + "/" + filepath.Base(fset.File(file.Pos()).Name())
			walk(file, func(n ast.Node, stack []ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isMake(p.info, call) {
					return
				}
				site := fname + " " + enclosingFunc(stack)
				dest, owner, err := makeDest(p.info, call, stack)
				if err != "" {
					t.Errorf("%s (%v): %s", site, fset.Position(call.Pos()), err)
					return
				}
				sites = append(sites, site+" -> "+dest)
				if owner != nil {
					guarded[owner] = dest
				}
			})
		}
	}
	slices.Sort(sites)
	if !slices.Equal(sites, makeSites) {
		t.Errorf("Make call sites changed:\n got %q\nwant %q", sites, makeSites)
	}
	for f, name := range guarded {
		if f.Exported() {
			t.Errorf("%s is exported: code outside its package could keep it without its owner", name)
		}
	}

	for _, p := range pkgs {
		for _, file := range p.files {
			walk(file, func(n ast.Node, stack []ast.Node) {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if !n.Name.IsExported() || n.Body == nil {
						return
					}
					ast.Inspect(n.Body, func(m ast.Node) bool {
						if _, ok := m.(*ast.FuncLit); ok {
							return false
						}
						if ret, ok := m.(*ast.ReturnStmt); ok {
							for _, r := range ret.Results {
								if name, whole := heldField(p.info, guarded, r); name != "" && whole {
									t.Errorf("%v: exported %s returns %s", fset.Position(r.Pos()), n.Name.Name, name)
								}
							}
						}
						return true
					})
				case *ast.FuncLit:
					var scope ast.Node = file
					if d := enclosingDecl(stack); d != nil {
						scope = d
					}
					ast.Inspect(n.Body, func(m ast.Node) bool {
						id, ok := m.(*ast.Ident)
						if !ok {
							return true
						}
						v, ok := p.info.Uses[id].(*types.Var)
						if !ok || v.IsField() || (v.Pos() >= n.Pos() && v.Pos() < n.End()) {
							return true
						}
						if name := capturedHolds(p.info, guarded, scope, v); name != "" {
							t.Errorf("%v: a function literal captures %s, which holds %s, not its owner",
								fset.Position(id.Pos()), id.Name, name)
						}
						return true
					})
				}
			})
		}
	}
}

// walk calls fn on every node of root with the path of its ancestors.
func walk(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// isMake reports whether call is an instantiation of libvig.Make.
func isMake(info *types.Info, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.IndexExpr:
		id = selIdent(fun.X)
	case *ast.IndexListExpr:
		id = selIdent(fun.X)
	default:
		id = selIdent(fun)
	}
	if id == nil {
		return false
	}
	f, ok := info.Uses[id].(*types.Func)
	return ok && f.Name() == "Make" && f.Pkg().Path() == "vignat/internal/libvig"
}

// selIdent is e's identifier: e itself, or the selected name of pkg.Name.
func selIdent(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// makeDest names where Make's result goes and checks that it goes to
// the owner of the Backing it was given. owner is the field, nil for a
// holder that points to its owner.
func makeDest(info *types.Info, call *ast.CallExpr, stack []ast.Node) (dest string, owner *types.Var, err string) {
	backing := call.Args[0]
	switch parent := stack[len(stack)-1].(type) {
	case *ast.KeyValueExpr: // Owner{field: Make(mem, n), ..., mem: mem}
		lit := stack[len(stack)-2].(*ast.CompositeLit)
		id, ok := backing.(*ast.Ident)
		if !ok {
			return "", nil, "the Backing is not a variable the literal also stores"
		}
		kept := false
		for _, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if v, ok := kv.Value.(*ast.Ident); ok && info.Uses[v] == info.Uses[id] {
					kept = true
				}
			}
		}
		if !kept {
			return "", nil, "the literal does not store the Backing it carves from"
		}
		f := info.Uses[parent.Key.(*ast.Ident)].(*types.Var)
		return structName(info.Types[lit].Type) + "." + f.Name(), f.Origin(), ""
	case *ast.AssignStmt:
		i := slices.Index(parent.Rhs, ast.Expr(call))
		bsel, ok := backing.(*ast.SelectorExpr)
		if !ok {
			return "", nil, "the Backing is not a field of the owner"
		}
		switch lhs := parent.Lhs[i].(type) {
		case *ast.SelectorExpr: // o.field = Make(o.mem, n)
			if rootObj(info, lhs.X) != rootObj(info, bsel.X) {
				return "", nil, "stored in a field of another struct than the Backing's"
			}
			f := info.Selections[lhs].Obj().(*types.Var)
			return structName(info.Types[lhs.X].Type) + "." + f.Name(), f.Origin(), ""
		case *ast.Ident: // slab := Make(o.mem, n), sliced into holders of o
			ownerType := info.Types[bsel.X].Type
			holder := holderOf(info, stack[len(stack)-2], info.Defs[lhs], ownerType)
			if holder == "" {
				return "", nil, "kept in a variable not stored into a struct that points to its owner"
			}
			return holder + " (holds *" + structName(ownerType) + ")", nil, ""
		}
	}
	return "", nil, "the result is not stored in a field"
}

// holderOf checks every use of v in block: each must be a slice of it
// stored into a field of a struct with a field of ownerType. It returns
// that struct and field, "" if any use is not.
func holderOf(info *types.Info, block ast.Node, v types.Object, ownerType types.Type) string {
	holder := ""
	ok := true
	ast.Inspect(block, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign {
			if id, isID := n.(*ast.Ident); isID && info.Uses[id] == v {
				ok = false // a use outside the assignments below
			}
			return true
		}
		for i, r := range as.Rhs {
			s, isSlice := r.(*ast.SliceExpr)
			if !isSlice || rootObj(info, s.X) != v {
				ast.Inspect(r, func(m ast.Node) bool {
					if id, isID := m.(*ast.Ident); isID && info.Uses[id] == v {
						ok = false
					}
					return true
				})
				continue
			}
			sel, isSel := as.Lhs[i].(*ast.SelectorExpr)
			if !isSel {
				ok = false
				continue
			}
			st := info.Types[sel.X].Type
			if !hasField(st, ownerType) {
				ok = false
				continue
			}
			holder = structName(st) + "." + sel.Sel.Name
		}
		return false
	})
	if !ok {
		return ""
	}
	return holder
}

// hasField reports whether struct type st has a field of type t.
func hasField(st, t types.Type) bool {
	s, ok := st.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := range s.NumFields() {
		if types.Identical(s.Field(i).Type(), t) {
			return true
		}
	}
	return false
}

// heldField names the guarded field e reaches — through selectors,
// indexing, slicing, & and parentheses — and whether e is the array
// itself or a slice of it rather than one element.
func heldField(info *types.Info, guarded map[*types.Var]string, e ast.Expr) (name string, whole bool) {
	whole = true
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			whole = false
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if name, ok := guarded[sel.Obj().(*types.Var).Origin()]; ok {
					return name, whole
				}
			}
			e = x.X
		default:
			return "", false
		}
	}
}

// capturedHolds names the guarded field v is ever set from in scope,
// "" if none: a variable holding the array, a slice of it or an element
// pointer keeps the mapping without its owner.
func capturedHolds(info *types.Info, guarded map[*types.Var]string, scope ast.Node, v *types.Var) string {
	found := ""
	ast.Inspect(scope, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok && i < len(n.Rhs) && (info.Defs[id] == v || info.Uses[id] == v) {
					if name, _ := heldField(info, guarded, n.Rhs[i]); name != "" {
						found = name
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if info.Defs[id] == v && i < len(n.Values) {
					if name, _ := heldField(info, guarded, n.Values[i]); name != "" {
						found = name
					}
				}
			}
		}
		return true
	})
	return found
}

// rootObj is the variable at the root of a selector, index or slice
// chain.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// structName is t's named type, behind any pointer, without its
// package or type arguments.
func structName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// enclosingFunc is the name of the function declaration in stack.
func enclosingFunc(stack []ast.Node) string {
	if d := enclosingDecl(stack); d != nil {
		return d.(*ast.FuncDecl).Name.Name
	}
	return "?"
}

// enclosingDecl is the function declaration in stack, nil outside one.
func enclosingDecl(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if d, ok := stack[i].(*ast.FuncDecl); ok {
			return d
		}
	}
	return nil
}
