package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder protects the repository's byte-identical-output guarantees
// (Chrome traces, JSONL sweep journals and bench reports) from Go's
// randomised map iteration order. A
// `range` over a map whose body feeds an order-sensitive sink —
// appending to a slice that is never subsequently sorted, writing
// directly to a stream (fmt.Fprint*/Write*), emitting trace spans, or
// accumulating floating-point/complex values (whose rounding is
// non-associative) — produces output that differs run to run. Counter
// accumulation and integer arithmetic are exempt: they are exact and
// commutative, and counters export name-sorted.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flags range-over-map bodies that feed order-sensitive sinks " +
		"(unsorted appends, stream writes, span emission, float " +
		"accumulation) and so break byte-identical output guarantees",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) error {
	facts := pass.Facts()
	for _, file := range pass.Files {
		// Map ranges are located through their enclosing statement lists so
		// the check can see the post-loop statements: a sort on the
		// collected slice right after the loop launders the order.
		ast.Inspect(file, func(n ast.Node) bool {
			var list []ast.Stmt
			switch s := n.(type) {
			case *ast.BlockStmt:
				list = s.List
			case *ast.CaseClause:
				list = s.Body
			case *ast.CommClause:
				list = s.Body
			default:
				return true
			}
			for i, st := range list {
				rs, ok := st.(*ast.RangeStmt)
				if !ok || !isMapRange(pass, rs) {
					continue
				}
				checkMapRange(pass, facts, rs, list[i+1:])
			}
			return true
		})
	}
	return nil
}

func isMapRange(pass *Pass, rs *ast.RangeStmt) bool {
	tv, ok := pass.Info.Types[rs.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange inspects one map-range body for order-sensitive sinks.
// suffix is the statement list following the loop in its enclosing block,
// used to recognise the collect-then-sort idiom.
func checkMapRange(pass *Pass, facts *Facts, rs *ast.RangeStmt, suffix []ast.Stmt) {
	sortedAfter := sortedVars(pass, suffix)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.RangeStmt:
			// A nested map range is audited by its own enclosing-list visit;
			// descending here would double-report its body.
			if isMapRange(pass, s) {
				return false
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rs, s, sortedAfter)
		case *ast.CallExpr:
			if desc, ok := orderedSinkCall(pass.Info, s); ok {
				pass.Reportf(s.Pos(),
					"map iteration feeds %s: emission order follows map order "+
						"and differs run to run; iterate sorted keys instead", desc)
				return true
			}
			if fn := calleeFunc(pass.Info, s); fn != nil {
				if _, desc, chain, ok := facts.EmitsOrdered(fn); ok {
					pass.Reportf(s.Pos(),
						"map iteration feeds %s via %s: emission order follows "+
							"map order and differs run to run; iterate sorted keys instead",
						desc, strings.Join(chain, " → "))
				}
			}
		}
		return true
	})
}

// checkMapRangeAssign flags unsorted appends and order-dependent
// accumulation targeting variables declared outside the loop.
func checkMapRangeAssign(pass *Pass, rs *ast.RangeStmt, as *ast.AssignStmt, sortedAfter map[types.Object]bool) {
	// out = append(out, ...) collecting into an outer slice.
	if (as.Tok == token.ASSIGN || as.Tok == token.DEFINE) && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if call, ok := stripParens(as.Rhs[0]).(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
			id, ok := stripParens(as.Lhs[0]).(*ast.Ident)
			if !ok {
				return
			}
			obj := lhsObject(pass, id)
			if obj == nil || declaredWithin(obj, rs) || sortedAfter[obj] {
				return
			}
			pass.Reportf(as.Pos(),
				"append to %s inside map iteration without a deterministic "+
					"sort afterwards: element order follows map order; sort the "+
					"slice (or iterate sorted keys)", id.Name)
			return
		}
	}

	// Compound accumulation: order-dependent for floats/complex (rounding
	// is non-associative) and strings (concatenation order is the value).
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	lhs := as.Lhs[0]
	tv, ok := pass.Info.Types[lhs]
	if !ok {
		return
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return
	}
	var kind string
	switch {
	case basic.Info()&types.IsFloat != 0:
		kind = "floating-point"
	case basic.Info()&types.IsComplex != 0:
		kind = "complex"
	case basic.Info()&types.IsString != 0:
		kind = "string"
	default:
		return // integer accumulation is exact and commutative
	}
	obj := accumTarget(pass, lhs)
	if obj == nil || declaredWithin(obj, rs) {
		return
	}
	pass.Reportf(as.Pos(),
		"%s accumulation into %s inside map iteration is order-dependent: "+
			"map order varies run to run; iterate sorted keys or keep a running "+
			"total at the update sites", kind, obj.Name())
}

// sortedVars collects variables that a statement suffix passes to a
// sort.*/slices.* call — the collect-then-sort idiom that restores
// determinism after a map-order append.
func sortedVars(pass *Pass, suffix []ast.Stmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, st := range suffix {
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if name := fn.Pkg().Name(); name != "sort" && name != "slices" {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if obj := pass.Info.Uses[id]; obj != nil {
							out[obj] = true
						}
					}
					return true
				})
			}
			return true
		})
	}
	return out
}

// isBuiltinAppend matches calls to the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := stripParens(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// lhsObject resolves the object an assignment left-hand identifier
// denotes (Defs for :=, Uses for =).
func lhsObject(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// accumTarget resolves the storage an accumulation writes through: the
// root identifier of an index/selector chain. A selector target (a
// struct field) always outlives the loop.
func accumTarget(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := stripParens(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := pass.Info.Selections[x]; ok {
				return sel.Obj()
			}
			return pass.Info.Uses[x.Sel]
		case *ast.Ident:
			return lhsObject(pass, x)
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj is declared inside the range
// statement (its key/value vars or body locals) — accumulating into those
// resets each iteration and is order-safe.
func declaredWithin(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos().IsValid() && obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
}
