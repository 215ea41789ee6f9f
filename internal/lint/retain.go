package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Retain enforces the buffer-reuse contract on types annotated
// //cplint:reused (trace.Batch): a function or callback that receives
// a reused value — *Batch, or anything aliasing its columns — must
// consume or copy it before returning. The analyzer tracks reused
// parameters through assignments, field writes, append, channel sends,
// goroutine captures, and interprocedural flows (per-function escape
// summaries over the module call graph, with CHA for module-local
// interfaces like EventSource/BatchSink), and flags every flow into a
// location that outlives the frame.
//
// Copies are recognized structurally and need no annotation:
// CopyBatches, AppendTo, append(x[:0:0], x...), append([]T(nil), x...)
// and any other element-wise copy of scalar columns. A deliberate
// retention carries a reasoned //cplint:retained-ok <why> on the
// escaping statement.
var Retain = &Analyzer{
	Name:       "retain",
	Doc:        "flags reused buffers (//cplint:reused types) escaping the callback frame without a copy",
	Run:        runRetain,
	NeedsGraph: true,
}

func runRetain(pass *Pass) error {
	g := pass.Graph
	if g == nil || len(g.reused) == 0 {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				obj, _ := info.Defs[n.Name].(*types.Func)
				if obj == nil {
					return true
				}
				sig, _ := obj.Type().(*types.Signature)
				if sig != nil && g.hasReusedParam(sig) {
					reportFrame(pass, n, n.Body, sig)
				}
			case *ast.FuncLit:
				sig, _ := info.TypeOf(n).(*types.Signature)
				if sig != nil && g.hasReusedParam(sig) {
					reportFrame(pass, n, n.Body, sig)
				}
			}
			return true
		})
	}
	return nil
}

// reportFrame runs the taint walk over one frame (a function with a
// reused-typed parameter) and reports escapes of reused bits.
func reportFrame(pass *Pass, frame ast.Node, body *ast.BlockStmt, sig *types.Signature) {
	g := pass.Graph
	t := newTaint(g, pass.Pkg, frame, body, sig)
	var reusedBits uint64
	for i, p := range t.params {
		if i < 64 && g.isReusedType(p.Type()) {
			reusedBits |= uint64(1) << uint(i)
		}
	}
	if reusedBits == 0 {
		return
	}
	t.report = func(e escapeEvent) {
		if e.mask&reusedBits == 0 {
			return
		}
		if d := directiveAt(pass.Pkg, DirRetainedOK, e.pos); d != nil {
			return
		}
		msg := fmt.Sprintf("reused buffer escapes: %s; the buffer is overwritten after this frame returns — copy it (CopyBatches/AppendTo/append(x[:0:0], x...)) or annotate //cplint:retained-ok <why>", e.desc)
		if fix, ok := copyFix(pass, e); ok {
			pass.ReportFixf(e.pos, fix, "%s", msg)
			return
		}
		pass.Reportf(e.pos, "%s", msg)
	}
	t.run()
}

// copyFix builds the append(x[:0:0], x...) rewrite when the escaping
// value is a plain slice-typed chain with value-like elements — the
// one case where a shallow element copy is a full copy.
func copyFix(pass *Pass, e escapeEvent) (SuggestedFix, bool) {
	if e.expr == nil || !simpleChain(e.expr) {
		return SuggestedFix{}, false
	}
	tt := pass.Pkg.Info.TypeOf(e.expr)
	if tt == nil {
		return SuggestedFix{}, false
	}
	if _, ok := tt.Underlying().(*types.Slice); !ok {
		return SuggestedFix{}, false
	}
	if pointerful(elemType(tt)) {
		return SuggestedFix{}, false
	}
	src := types.ExprString(e.expr)
	return SuggestedFix{
		Message: fmt.Sprintf("copy the column: append(%s[:0:0], %s...)", src, src),
		Edits: []TextEdit{
			pass.Edit(e.expr.Pos(), e.expr.End(), fmt.Sprintf("append(%s[:0:0], %s...)", src, src)),
		},
	}, true
}

// simpleChain reports whether e is a pure identifier/selector/index
// chain — safe to duplicate textually in a rewrite.
func simpleChain(e ast.Expr) bool {
	for {
		switch v := e.(type) {
		case *ast.Ident, *ast.BasicLit:
			return true
		case *ast.SelectorExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.IndexExpr:
			if !simpleChain(v.Index) {
				return false
			}
			e = v.X
		default:
			return false
		}
	}
}
