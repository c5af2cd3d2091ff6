package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported declarations that no non-test file of
// the module calls but that stay, each with the caller the scan cannot see.
var exportAllowlist = map[string]string{
	// bench/ is its own module; its load generator reaches these.
	"(*costest/internal/plan.Node).Signature":       "bench/costload keys its plan corpus with it",
	"(*costest/internal/serve.WirePlan).Decode":     "bench/costload's replay decodes request bodies with it",
	"(*costest/internal/serve.Scheduler).Submit":    "bench/costload's replay submits plans through it",
	"(*costest/internal/core.Server).EstimateBatch": "bench/costload's replay evaluates batches through it",
	"costest/internal/tensor.NewMat":                "bench/costload builds its kernel-timing matrices with it",
	"costest/internal/replica.AppendModelPayload":   "bench/costload encodes its replication frames through it",
	"costest/internal/replica.ApplyModelPayload":    "bench/costload times the follower's frame apply through it",

	// Oracles and validators of the test suites.
	"(*costest/internal/stats.Catalog).TrueSelectivity": "selectivity tests compare estimates with an exact table scan",
	"(*costest/internal/schema.Schema).ConnectedSubset": "schema, dataset and workload tests validate join graphs with it",
	"(*costest/internal/schema.Schema).JoinBetween":     "schema and dataset tests validate foreign-key edges with it",
	"(*costest/internal/core.MemoryPool).Generation":    "core session and serving tests check pool invalidation with it",
	"costest/internal/serve.DecodeEstimate":             "the request-decoder differential and fuzz target",
	"(*costest/internal/strembed.Trie).Lookup":          "trie tests check the dictionary it builds",
	"(*costest/internal/strembed.SkipGram).Similarity":  "skip-gram tests check that co-occurring tokens embed close",
	"costest/internal/fault.Disable":                    "fault tests uninstall the injector between cases",
	"costest/internal/fault.Calls":                      "fault, scheduler and chaos tests count hook-point calls",

	// Test aids that several packages' tests share. Single-package aids live
	// in that package's export_test.go instead.
	"costest/internal/plan/plantest.CheckIDs":        "plantest is the test-helper package: the plan.ID partition check of the plan, feature and serve tests",
	"(*costest/internal/nn.ParamSet).MarkAllUpdated": "the documented call after writing weights directly; serving, replica and supervisor tests make it",
	"costest/internal/nn.ActIdentity":                "the zero Activation: an MLP output with no nonlinearity",
}

// TestExportsHaveCallers keeps exported library code from outliving its
// callers: every exported package-level func, method, type, const or var
// declared outside _test.go must be used by some other non-test code of the
// module (its own body and, for a type, its own method receivers do not
// count). Methods that satisfy an interface declared in the module, or
// fmt.Stringer / error, are reached through the interface and are exempt.
func TestExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load("costest/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	decls := exportedDecls(prog)
	unused := unusedExports(prog, decls)
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
	}
	for key, why := range exportAllowlist {
		switch {
		case !declared[key]:
			t.Errorf("allowlist entry %s (%s) names nothing declared: drop it", key, why)
		case !unused[key]:
			t.Errorf("allowlist entry %s (%s) now has a caller: drop it", key, why)
		}
	}
	var keys []string
	for key := range unused {
		if _, ok := exportAllowlist[key]; !ok {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		t.Errorf("%s: exported, but no non-test code of the module uses it", key)
	}
}

// foreignWriteAllowlist names the vars of other packages that module code may
// write, each with why.
var foreignWriteAllowlist = map[string]string{
	"flag.Usage": "the flag package's documented hook for a command's usage message",
}

// TestNoForeignVarWrites keeps each package the only writer of its
// package-level vars: no non-test code of the module assigns to, increments
// or takes the address of another package's var, or of a field or element of
// one. An exported var is then as good as a constant outside its package —
// the fault package's Site vars, say, are the hook points its injector and
// its callers both name, and a reassigned one would fork them silently.
func TestNoForeignVarWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load("costest/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	allowed := map[string]bool{}
	for _, pkg := range prog.Packages {
		check := func(x ast.Expr) {
			v := foreignVar(pkg, x)
			if v == nil {
				return
			}
			key := v.Pkg().Path() + "." + v.Name()
			if _, ok := foreignWriteAllowlist[key]; ok {
				allowed[key] = true
				return
			}
			t.Errorf("%s: writes %s, a package-level var of another package", prog.Fset.Position(x.Pos()), key)
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, x := range n.Lhs {
						check(x)
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						check(n.Key)
						check(n.Value)
					}
				case *ast.IncDecStmt:
					check(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						check(n.X)
					}
				}
				return true
			})
		}
	}
	for key, why := range foreignWriteAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s (%s) is written nowhere: drop it", key, why)
		}
	}
}

// foreignVar returns the package-level var of another package that writing
// to x writes to (x itself, or a field or element of it), or nil.
func foreignVar(pkg *Package, x ast.Expr) *types.Var {
	for {
		switch e := x.(type) {
		case *ast.ParenExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.SelectorExpr:
			if id, ok := e.X.(*ast.Ident); ok {
				if _, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
					v, ok := pkg.Info.Uses[e.Sel].(*types.Var)
					if ok && v.Pkg() != pkg.Types && v.Parent() == v.Pkg().Scope() {
						return v
					}
					return nil
				}
			}
			x = e.X
		default:
			return nil
		}
	}
}

// exportedDecl is one exported package-level declaration: its name-based key
// (types.Func.FullName for funcs and methods, path.Name otherwise — each
// package sees imported objects as different objects, so only names match
// across packages) and the span its own uses are ignored in.
type exportedDecl struct {
	key      string
	obj      types.Object
	from, to token.Pos
}

func exportedDecls(prog *Program) []exportedDecl {
	var out []exportedDecl
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if ok && d.Name.IsExported() && exportedRecv(fn) {
						out = append(out, exportedDecl{objKey(fn), fn, d.Pos(), d.End()})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, id := range names {
							if obj := pkg.Info.Defs[id]; obj != nil && id.IsExported() {
								out = append(out, exportedDecl{objKey(obj), obj, spec.Pos(), spec.End()})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// unusedExports returns the keys of the declarations that no non-test code of
// the module uses outside their own declaration.
func unusedExports(prog *Program, decls []exportedDecl) map[string]bool {
	spans := map[string][2]token.Pos{}
	for _, d := range decls {
		spans[d.key] = [2]token.Pos{d.from, d.to}
	}
	used := map[string]bool{}
	for _, pkg := range prog.Packages {
		recvIdents := receiverTypeIdents(pkg)
		for id, obj := range pkg.Info.Uses {
			if obj.Pkg() == nil || recvIdents[id] {
				continue
			}
			key := objKey(obj)
			if span, ok := spans[key]; ok && obj.Pkg().Path() == pkg.PkgPath &&
				id.Pos() >= span[0] && id.Pos() < span[1] {
				continue // a recursive call or self-reference is not a caller
			}
			used[key] = true
		}
	}
	satisfies := interfaceMethods(prog)
	unused := map[string]bool{}
	for _, d := range decls {
		if used[d.key] {
			continue
		}
		if fn, ok := d.obj.(*types.Func); ok && satisfies(fn) {
			continue
		}
		unused[d.key] = true
	}
	return unused
}

// objKey names an object the same way in every package's view of it.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// exportedRecv reports whether fn is a function or a method of an exported
// type: a method of an unexported type is unreachable by name from outside
// its package whatever its own name.
func exportedRecv(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Exported()
}

// receiverTypeIdents collects the identifiers naming a method's receiver
// type: a type whose only mentions are its own receivers has no caller.
func receiverTypeIdents(pkg *Package) map[*ast.Ident]bool {
	out := map[*ast.Ident]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			ast.Inspect(fd.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					out[id] = true
				}
				return true
			})
		}
	}
	return out
}

// interfaceMethods returns a predicate reporting whether a method is one by
// which its receiver type satisfies an interface declared in the module, or
// fmt.Stringer or error. Signatures compare as strings with full package
// paths, since the declaring and implementing packages see the types as
// different objects.
func interfaceMethods(prog *Program) func(*types.Func) bool {
	type method struct{ name, sig string }
	ifaces := [][]method{{{"String", "()(string,)"}}, {{"Error", "()(string,)"}}}
	for _, pkg := range prog.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ms := make([]method, it.NumMethods())
				for i := range ms {
					ms[i] = method{it.Method(i).Name(), sigString(it.Method(i))}
				}
				ifaces = append(ifaces, ms)
			}
		}
	}
	return func(fn *types.Func) bool {
		r := fn.Type().(*types.Signature).Recv()
		if r == nil {
			return false
		}
		recv := r.Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		mset := types.NewMethodSet(types.NewPointer(recv))
		has := map[method]bool{}
		for i := 0; i < mset.Len(); i++ {
			m := mset.At(i).Obj().(*types.Func)
			has[method{m.Name(), sigString(m)}] = true
		}
		for _, ms := range ifaces {
			all, mine := true, false
			for _, m := range ms {
				all = all && has[m]
				mine = mine || m.name == fn.Name()
			}
			if all && mine {
				return true
			}
		}
		return false
	}
}

// sigString spells a method's signature by types alone: parameter names and
// the receiver are not part of what an interface asks for.
func sigString(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), nil))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
