package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ioUnderLock flags disk or network I/O that is reachable while a
// mutex is held. Holding a lock across an fsync or a dial turns every
// contender into a disk-latency victim — PR 5 shipped exactly this
// bug (the job journal's fsync ran under jobs.Pool.mu until review
// caught it), and the fix (reserve under the lock, write outside,
// re-lock to publish) is the shape this rule now enforces mechanically.
//
// The scan is interprocedural: a call made under a lock is resolved
// through the program call graph, so the I/O may be buried several
// frames deep (SubmitMeta → journal.Append → file.Sync). Packages whose
// whole point is I/O under their own lock — the journal's WAL
// serialises writers by design, and fsx.Faulty brackets injected
// faults with a bookkeeping mutex — are excluded by scope, not by
// special cases here.
type ioUnderLock struct {
	applies func(string) bool
}

// NewIOUnderLock returns the iounderlock rule restricted to packages
// matched by applies. Reachability still spans the whole module: a
// scoped function holding its lock across a call into an exempt
// package is the bug, and is reported.
func NewIOUnderLock(applies func(string) bool) Rule {
	return &ioUnderLock{applies: applies}
}

func (r *ioUnderLock) Name() string { return "iounderlock" }

func (r *ioUnderLock) Doc() string {
	return "no disk or network I/O reachable while a sync.Mutex/RWMutex is held"
}

func (r *ioUnderLock) Applies(p string) bool { return r.applies(p) }

// Check is unused: the engine dispatches ProgramRules to CheckProgram.
func (r *ioUnderLock) Check(pkg *Package, report ReportFunc) {}

func (r *ioUnderLock) CheckProgram(prog *Program, report ProgramReportFunc) {
	for _, key := range prog.sortedFuncKeys() {
		ff := prog.Funcs[key]
		if !r.applies(ff.Pkg.Path) {
			continue
		}
		scanCritical(ff.Pkg, ff.Decl, csCallbacks{
			onCall: func(call *ast.CallExpr, fn *types.Func, held []heldLock) {
				r.checkCall(prog, ff, call, fn, held, report)
			},
		})
	}
}

func (r *ioUnderLock) checkCall(prog *Program, ff *FuncFacts, call *ast.CallExpr,
	fn *types.Func, held []heldLock, report ProgramReportFunc) {
	var desc, via string
	switch {
	case isIOFunc(fn):
		desc = funcDisplay(fn)
	default:
		reach := prog.ReachIO(funcKey(fn))
		if reach == nil {
			return
		}
		desc = reach.Fact.Desc
		via = " (via " + chainString(reach.Chain) + ")"
	}
	report(ff.Pkg, call.Pos(), fmt.Sprintf(
		"I/O (%s) reachable while %s is held%s: release the lock around the I/O "+
			"— reserve state under the lock, do the I/O outside, re-lock to publish",
		desc, heldNames(held), via))
}

// heldNames renders the held-lock set for a message.
func heldNames(held []heldLock) string {
	if len(held) == 1 {
		return held[0].Display
	}
	s := ""
	for i, h := range held {
		if i > 0 {
			s += ", "
		}
		s += h.Display
	}
	return s
}
