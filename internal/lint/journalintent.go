package lint

import (
	"go/ast"
	"go/token"
)

// JournalIntentAnalyzer enforces the crash-consistency discipline from
// the failover work (internal/core + internal/journal): within a
// function, the write-ahead intent record must be durably journaled
// BEFORE the driver mutation it covers. If the mutation comes first, a
// crash between the two leaves the switch changed with no intent on
// disk, and takeover reconciliation cannot classify — let alone roll
// back — the half-applied iteration.
//
// The check is intra-function and order-based: when a function body
// contains both an intent-journal write (journalBegin,
// journalCommitStaged, or a WriteIntent call) and a driver mutation,
// the first intent write must precede the first mutation in source
// order. Functions that only mutate (e.g. prologue setup or
// reconciliation replay, which checkpoint afterwards) are not flagged —
// the invariant binds the two together only where both occur.
//
// The mutation vocabulary is the control path's one op vocabulary
// (internal/driver/op.go), the same in every package:
//
//   - the mutating driver.Channel methods, on any receiver — the raw
//     channel, a layer's Adapter, core's retrying view of its channel;
//   - a call that executes a driver.Op — Apply, a layer's Do, core's
//     drvDo — when the op it is handed is visibly of a mutating kind: a
//     literal in the call, or a variable the function gave such a kind.
//     An op that merely passes through (a layer's Do forwarding to
//     Apply) carries no kind the function can see and is not a site.
var JournalIntentAnalyzer = &Analyzer{
	Name: "journalintent",
	Doc:  "journal intent writes in internal/core, internal/ctlchan, and internal/ctlplane must precede the driver mutations they cover",
	Match: func(p string) bool {
		return pathIn(p, "repro/internal/core", "repro/internal/ctlchan", "repro/internal/ctlplane")
	},
	Run: runJournalIntent,
}

// intentWriters durably record what is about to be done.
var intentWriters = map[string]bool{
	"journalBegin": true, "journalCommitStaged": true, "WriteIntent": true,
}

// channelMutators are the driver.Channel methods that change switch
// state (driver.OpKind.Mutating names the same set).
var channelMutators = map[string]bool{
	"AddEntry": true, "ModifyEntry": true, "DeleteEntry": true,
	"SetDefaultAction": true, "SetHashSeed": true, "RegWrite": true,
}

// opExecutors run a driver.Op; mutatingKinds are the kinds that make
// such a call a mutation.
var (
	opExecutors   = map[string]bool{"Apply": true, "Do": true, "drvDo": true}
	mutatingKinds = map[string]bool{
		"OpAddEntry": true, "OpModifyEntry": true, "OpDeleteEntry": true,
		"OpSetDefault": true, "OpSetHashSeed": true, "OpRegWrite": true,
	}
)

// mentionsMutatingKind reports whether e names a mutating op kind.
func mentionsMutatingKind(e ast.Node) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && mutatingKinds[id.Name] {
			found = true
		}
		return !found
	})
	return found
}

// opVar names the variable an expression designates — x for x, &x and
// x.Kind; a.op for &a.op — or "" if it is not a plain variable path.
func opVar(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.UnaryExpr:
		return opVar(e.X)
	case *ast.SelectorExpr:
		if e.Sel.Name == "Kind" {
			return opVar(e.X)
		}
		if base := opVar(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	}
	return ""
}

// mutatingOpVars collects the variables body binds to an op of a
// mutating kind: op := driver.Op{Kind: driver.OpRegWrite}, op.Kind = ….
func mutatingOpVars(body *ast.BlockStmt) map[string]bool {
	vars := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				if v := opVar(as.Lhs[i]); v != "" && mentionsMutatingKind(rhs) {
					vars[v] = true
				}
			}
		}
		return true
	})
	return vars
}

func runJournalIntent(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.TestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var firstIntent, firstMut token.Pos
			var mutName string
			opVars := mutatingOpVars(fn.Body)
			mutates := func(name string, call *ast.CallExpr) bool {
				if !opExecutors[name] {
					return channelMutators[name]
				}
				for _, arg := range call.Args {
					if mentionsMutatingKind(arg) || opVars[opVar(arg)] {
						return true
					}
				}
				return false
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := calleeName(call)
				switch {
				case intentWriters[name]:
					if firstIntent == token.NoPos {
						firstIntent = call.Pos()
					}
				case mutates(name, call):
					if firstMut == token.NoPos {
						firstMut = call.Pos()
						mutName = name
					}
				}
				return true
			})
			if firstIntent != token.NoPos && firstMut != token.NoPos && firstMut < firstIntent {
				pass.Reportf(firstMut,
					"%s: driver mutation %s precedes the intent journal write; a crash here is unrecoverable (journal the intent first)",
					fn.Name.Name, mutName)
			}
		}
	}
	return nil
}
