package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// This file holds stdlib-only reimplementations of x/tools passes the
// repo wants in one tool alongside the custom analyzers. nilness is not
// part of `go vet`; copylocks and unusedresult extend their vet
// namesakes (a by-value result holding an atomic, dropped strings/
// strconv results). They are deliberately conservative subsets of their
// x/tools namesakes (this module has no external dependencies, so the
// originals cannot be vendored): each flags the high-confidence core of
// its upstream pass and nothing speculative.

// ---------------------------------------------------------------------
// nilness: dereference of a value inside the branch that proved it nil.

// NilnessAnalyzer flags `if x == nil { ... x.f ... }` (and the != nil
// else-branch form): uses of x that must panic given the branch
// condition. Unlike the SSA-based upstream, it only tracks a single
// identifier through one branch and bails on any reassignment.
var NilnessAnalyzer = &Analyzer{
	Name: "nilness",
	Doc:  "flag dereferences of a value inside the branch that established it is nil",
	Run:  runNilness,
}

func runNilness(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			bin, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			if x, ok := ast.Unparen(bin.X).(*ast.Ident); ok && isNilIdent(pass, bin.Y) {
				id = x
			} else if y, ok := ast.Unparen(bin.Y).(*ast.Ident); ok && isNilIdent(pass, bin.X) {
				id = y
			}
			if id == nil {
				return true
			}
			obj, ok := pass.ObjectOf(id).(*types.Var)
			if !ok {
				return true
			}
			var nilBranch ast.Stmt
			switch bin.Op.String() {
			case "==":
				nilBranch = ifs.Body
			case "!=":
				nilBranch = ifs.Else
			}
			if nilBranch == nil {
				return true
			}
			checkNilUses(pass, obj, nilBranch)
			return true
		})
	}
}

func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.ObjectOf(id).(*types.Nil)
	return isNil
}

// checkNilUses flags panicking uses of obj in branch, stopping at any
// reassignment of obj.
func checkNilUses(pass *Pass, obj *types.Var, branch ast.Stmt) {
	reassigned := false
	ast.Inspect(branch, func(n ast.Node) bool {
		if reassigned {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
					reassigned = true
					return false
				}
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "&" {
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && pass.ObjectOf(id) == obj {
					reassigned = true // address taken: give up
					return false
				}
			}
		case *ast.StarExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && pass.ObjectOf(id) == obj {
				pass.Reportf(x.Pos(), "nil dereference: *%s inside the branch that established %s == nil", obj.Name(), obj.Name())
			}
		case *ast.SelectorExpr:
			id, ok := ast.Unparen(x.X).(*ast.Ident)
			if !ok || pass.ObjectOf(id) != obj {
				return true
			}
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
				pass.Reportf(x.Pos(), "nil dereference: %s.%s inside the branch that established %s == nil", obj.Name(), x.Sel.Name, obj.Name())
			}
			if _, isIface := obj.Type().Underlying().(*types.Interface); isIface {
				pass.Reportf(x.Pos(), "nil method call: %s.%s inside the branch that established %s == nil", obj.Name(), x.Sel.Name, obj.Name())
			}
		case *ast.IndexExpr:
			id, ok := ast.Unparen(x.X).(*ast.Ident)
			if !ok || pass.ObjectOf(id) != obj {
				return true
			}
			switch obj.Type().Underlying().(type) {
			case *types.Slice:
				pass.Reportf(x.Pos(), "nil index: %s[...] inside the branch that established %s == nil", obj.Name(), obj.Name())
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && pass.ObjectOf(id) == obj {
				pass.Reportf(x.Pos(), "nil call: %s(...) inside the branch that established %s == nil", obj.Name(), obj.Name())
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------
// copylocks: copying values containing synchronization primitives.

// CopyLocksAnalyzer flags copies of values whose type contains a sync
// primitive (Mutex, RWMutex, WaitGroup, Once, Cond, Pool, Map) or a
// sync/atomic integer type: by-value parameters, receivers and results,
// assignments, range element copies, and by-value call arguments.
var CopyLocksAnalyzer = &Analyzer{
	Name: "copylocks",
	Doc:  "flag by-value copies of types containing sync primitives",
	Run:  runCopyLocks,
}

var syncNoCopyTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true,
	"Cond": true, "Pool": true, "Map": true,
}

var atomicNoCopyTypes = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

// lockPath returns a description of the sync primitive contained in t,
// or "" when t is copy-safe. depth bounds recursion through struct
// fields and arrays.
func lockPath(t types.Type, depth int) string {
	if depth > 10 || t == nil {
		return ""
	}
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			switch {
			case pkg.Path() == "sync" && syncNoCopyTypes[named.Obj().Name()]:
				return "sync." + named.Obj().Name()
			case pkg.Path() == "sync/atomic" && atomicNoCopyTypes[named.Obj().Name()]:
				return "sync/atomic." + named.Obj().Name()
			}
		}
		return lockPath(named.Underlying(), depth+1)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if p := lockPath(u.Field(i).Type(), depth+1); p != "" {
				return fmt.Sprintf("field %s (%s)", u.Field(i).Name(), p)
			}
		}
	case *types.Array:
		if p := lockPath(u.Elem(), depth+1); p != "" {
			return "array element " + p
		}
	}
	return ""
}

func runCopyLocks(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				checkFuncTypeLocks(pass, x.Type)
				if x.Recv != nil && len(x.Recv.List) == 1 {
					t := pass.TypeOf(x.Recv.List[0].Type)
					if _, isPtr := t.(*types.Pointer); !isPtr {
						if p := lockPath(t, 0); p != "" {
							pass.Reportf(x.Recv.Pos(), "value receiver of %s copies %s: use a pointer receiver", x.Name.Name, p)
						}
					}
				}
			case *ast.FuncLit:
				checkFuncTypeLocks(pass, x.Type)
			case *ast.AssignStmt:
				if len(x.Lhs) != len(x.Rhs) {
					return true
				}
				for i, rhs := range x.Rhs {
					if isLockCopySource(pass, rhs) {
						if p := lockPath(pass.TypeOf(rhs), 0); p != "" {
							pass.Reportf(x.Lhs[i].Pos(), "assignment copies a lock value: %s contains %s", types.ExprString(rhs), p)
						}
					}
				}
			case *ast.RangeStmt:
				if x.Value == nil {
					return true
				}
				if p := lockPath(pass.TypeOf(x.Value), 0); p != "" {
					pass.Reportf(x.Value.Pos(), "range copies a lock value: element contains %s (range over indices or pointers)", p)
				}
			case *ast.CallExpr:
				fn := pass.CalleeFunc(x)
				if fn == nil {
					return true
				}
				for _, arg := range x.Args {
					if isLockCopySource(pass, arg) {
						if p := lockPath(pass.TypeOf(arg), 0); p != "" {
							pass.Reportf(arg.Pos(), "call of %s copies a lock value: %s contains %s", fn.Name(), types.ExprString(arg), p)
						}
					}
				}
			}
			return true
		})
	}
}

// checkFuncTypeLocks flags by-value lock-containing parameters/results.
func checkFuncTypeLocks(pass *Pass, ft *ast.FuncType) {
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := pass.TypeOf(field.Type)
			if _, isPtr := t.(*types.Pointer); isPtr {
				continue
			}
			if p := lockPath(t, 0); p != "" {
				pass.Reportf(field.Pos(), "%s passes a lock by value: contains %s", what, p)
			}
		}
	}
	check(ft.Params, "parameter")
	check(ft.Results, "result")
}

// isLockCopySource reports whether e is an expression whose evaluation
// copies an existing value (as opposed to constructing a fresh one:
// composite literals, calls, and address-taking are not flagged here —
// a call result is flagged at the callee's result type instead).
func isLockCopySource(pass *Pass, e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		// Identifiers resolving to package names or types are not values.
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			switch pass.ObjectOf(id).(type) {
			case *types.Var:
			default:
				return false
			}
		}
		return true
	}
	return false
}

// ---------------------------------------------------------------------
// unusedresult: pure-function calls whose result is dropped.

// UnusedResultAnalyzer flags statement-position calls to functions whose
// only effect is their return value.
var UnusedResultAnalyzer = &Analyzer{
	Name: "unusedresult",
	Doc:  "flag calls to pure functions (fmt.Sprintf, errors.New, ...) whose result is discarded",
	Run:  runUnusedResult,
}

// pureFuncs maps package path -> function names whose result is the
// whole point.
var pureFuncs = map[string]map[string]bool{
	"fmt":    {"Sprint": true, "Sprintf": true, "Sprintln": true, "Errorf": true},
	"errors": {"New": true, "Unwrap": true, "Is": true, "As": false, "Join": true},
	"sort":   {"Reverse": true},
	"strings": {
		"Repeat": true, "Replace": true, "ReplaceAll": true, "ToLower": true,
		"ToUpper": true, "TrimSpace": true, "Trim": true, "TrimPrefix": true,
		"TrimSuffix": true, "Split": true, "Join": true, "Fields": true,
		"Contains": true, "HasPrefix": true, "HasSuffix": true,
	},
	"strconv": {
		"Itoa": true, "Atoi": true, "Quote": true, "Unquote": true,
		"FormatInt": true, "FormatFloat": true, "ParseInt": true,
		"ParseFloat": true, "ParseBool": true,
	},
	"maps":   {"Keys": true, "Values": true, "Clone": true},
	"slices": {"Clone": true, "Contains": true, "Index": true, "Sorted": true},
}

// pureMethods are no-arg methods flagged in statement position on any
// receiver.
var pureMethods = map[string]bool{"String": true, "Error": true}

func runUnusedResult(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.CalleeFunc(call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			sig := fn.Type().(*types.Signature)
			if sig.Recv() == nil {
				if names, ok := pureFuncs[fn.Pkg().Path()]; ok && names[fn.Name()] {
					pass.Reportf(call.Pos(), "result of %s.%s is discarded: the call has no other effect", fn.Pkg().Name(), fn.Name())
				}
			} else if pureMethods[fn.Name()] && sig.Params().Len() == 0 && len(call.Args) == 0 && sig.Results().Len() == 1 {
				pass.Reportf(call.Pos(), "result of (%s).%s is discarded: the call has no other effect", sig.Recv().Type().String(), fn.Name())
			}
			return true
		})
	}
}
