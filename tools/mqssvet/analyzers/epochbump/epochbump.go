// Package epochbump enforces the calibration-epoch bump contract (PR 4):
// every write to a calibration-bearing field must advance the device's
// calibration epoch in the same operation, or the lowering cache and the
// dispatch-time staleness gate keep serving payloads compiled against
// calibration the device no longer has.
//
// The contract surface is explicit in the source: struct fields tagged
// //mqss:calibrated hold calibration state, and the field tagged
// //mqss:epoch is the counter every mutation must bump. A function counts
// as bumping when it writes the epoch field directly (increment,
// assignment, atomic add through its address, or a composite-literal key)
// or calls — transitively within the package — a function that does.
package epochbump

import (
	"go/ast"
	"go/token"
	"go/types"

	"mqsspulse/tools/mqssvet/analysis"
	"mqsspulse/tools/mqssvet/cfg"
)

// Analyzer is the epochbump check.
var Analyzer = &analysis.Analyzer{
	Name: "epochbump",
	Doc:  "writes to //mqss:calibrated struct fields must bump the //mqss:epoch field before returning",
	Run:  run,
}

// markedType describes one struct participating in the contract.
type markedType struct {
	obj        types.Object    // the struct's type object
	calibrated map[string]bool // field names tagged //mqss:calibrated
	epoch      string          // field name tagged //mqss:epoch
}

func run(pass *analysis.Pass) (any, error) {
	marked := collectMarkedTypes(pass)
	if len(marked) == 0 {
		return nil, nil
	}

	// First pass: which functions write an epoch field (for any marked
	// type); the shared call graph says which functions call which.
	graph := cfg.BuildCallGraph(pass.Files, pass.TypesInfo)
	writesEpoch := map[*types.Func]bool{}
	for fnObj, fn := range graph.Decls {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if epochWrite(pass, marked, n) {
				writesEpoch[fnObj] = true
			}
			return true
		})
	}
	// Propagate: calling a bumper makes you a bumper.
	for changed := true; changed; {
		changed = false
		for fnObj, callees := range graph.Calls {
			if writesEpoch[fnObj] {
				continue
			}
			for _, c := range callees {
				if writesEpoch[c] {
					writesEpoch[fnObj] = true
					changed = true
					break
				}
			}
		}
	}

	// Second pass: every function writing a calibrated field must bump.
	for fnObj, fn := range graph.Decls {
		if writesEpoch[fnObj] {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if mt, field, pos := calibratedWrite(pass, marked, n); mt != nil {
				pass.Reportf(pos,
					"%s writes calibrated field %s.%s without bumping %s; stale compiled payloads will keep passing the epoch gate",
					fn.Name.Name, mt.obj.Name(), field, mt.epoch)
				return false // one report per write site tree
			}
			return true
		})
	}
	return nil, nil
}

// collectMarkedTypes finds structs with //mqss:calibrated fields.
func collectMarkedTypes(pass *analysis.Pass) []*markedType {
	var marked []*markedType
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gen.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				mt := &markedType{calibrated: map[string]bool{}}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if analysis.FieldMarked(field, "mqss:calibrated") {
							mt.calibrated[name.Name] = true
						}
						if analysis.FieldMarked(field, "mqss:epoch") {
							mt.epoch = name.Name
						}
					}
				}
				if len(mt.calibrated) == 0 {
					continue
				}
				mt.obj = pass.TypesInfo.Defs[ts.Name]
				if mt.epoch == "" {
					pass.Reportf(ts.Pos(),
						"%s has //mqss:calibrated fields but no //mqss:epoch counter field", ts.Name.Name)
					continue
				}
				marked = append(marked, mt)
			}
		}
	}
	return marked
}

// fieldBase resolves expr (a selector chain like d.f, d.f[i], (*d).f) to
// the marked type it selects into and the field name, if any.
func fieldBase(pass *analysis.Pass, marked []*markedType, expr ast.Expr) (*markedType, string) {
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = e.X
			continue
		case *ast.ParenExpr:
			expr = e.X
			continue
		case *ast.StarExpr:
			expr = e.X
			continue
		}
		break
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return nil, ""
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, ""
	}
	for _, mt := range marked {
		if named.Obj() == mt.obj {
			return mt, sel.Sel.Name
		}
	}
	return nil, ""
}

// epochWrite reports whether n writes a marked type's epoch field:
// e.epoch++ / e.epoch = v / atomic add through &e.epoch / a composite
// literal with the epoch key.
func epochWrite(pass *analysis.Pass, marked []*markedType, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.IncDecStmt:
		if mt, field := fieldBase(pass, marked, n.X); mt != nil && field == mt.epoch {
			return true
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if mt, field := fieldBase(pass, marked, lhs); mt != nil && field == mt.epoch {
				return true
			}
		}
	case *ast.UnaryExpr:
		// &e.epoch handed to atomic.AddInt64 and friends.
		if n.Op.String() == "&" {
			if mt, field := fieldBase(pass, marked, n.X); mt != nil && field == mt.epoch {
				return true
			}
		}
	case *ast.CompositeLit:
		named, ok := deref(pass.TypesInfo.Types[n].Type).(*types.Named)
		if !ok {
			return false
		}
		for _, mt := range marked {
			if named.Obj() != mt.obj {
				continue
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == mt.epoch {
					return true
				}
			}
		}
	}
	return false
}

// calibratedWrite reports a write to a marked calibrated field.
func calibratedWrite(pass *analysis.Pass, marked []*markedType, n ast.Node) (*markedType, string, token.Pos) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if mt, field := fieldBase(pass, marked, lhs); mt != nil && mt.calibrated[field] {
				return mt, field, n.Pos()
			}
		}
	case *ast.IncDecStmt:
		if mt, field := fieldBase(pass, marked, n.X); mt != nil && mt.calibrated[field] {
			return mt, field, n.Pos()
		}
	case *ast.ExprStmt:
		// delete(e.field, k) and e.field mutations through builtins.
		if call, ok := n.X.(*ast.CallExpr); ok {
			if ident, ok := call.Fun.(*ast.Ident); ok && ident.Name == "delete" && len(call.Args) > 0 {
				if mt, field := fieldBase(pass, marked, call.Args[0]); mt != nil && mt.calibrated[field] {
					return mt, field, n.Pos()
				}
			}
		}
	}
	return nil, "", token.NoPos
}

// deref strips one pointer level.
func deref(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}
