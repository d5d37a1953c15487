package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SinkDiscipline enforces the hot-path rule shared by the two
// observability sinks, the metrics registry (DESIGN.md §8) and the
// flight recorder (§10): code reachable from a //repro:hotpath root
// touches a sink only through its writer side. Setup and reader-side
// entry points walk, copy or allocate, so reaching them is a contract
// violation even when hotpathalloc can't prove an allocation on the
// specific path.
//
// Flagged, in hotpath-reachable code:
//   - metrics: any *obs.Registry method call, obs.NewRegistry,
//     reader-side Histogram.Snapshot, and map lookups that fetch a
//     metric cell (map values of type *obs.Counter/Gauge/Histogram) —
//     publishers hold pre-registered cells by value;
//   - recorder: every rec function and Recorder method except
//     (*rec.Recorder).Emit and Stamp, the nil-safe, allocation-free
//     stores into a pre-allocated ring.
var SinkDiscipline = &Analyzer{
	Name: "sinkdiscipline",
	Doc:  "flags metrics-registry and flight-recorder setup/reader-side use reachable from //repro:hotpath roots",
	Run:  runSinkDiscipline,
}

func runSinkDiscipline(prog *Program) []Diagnostic {
	obsPath := prog.ModPath + "/internal/obs"
	recPath := obsPath + "/rec"
	var diags []Diagnostic
	for _, r := range prog.reachableFrom(prog.markers.roots(contractHotpath)) {
		pkg := r.fn.Pkg
		via := viaClause(prog, r)
		report := func(pos token.Pos, msg string) {
			diags = append(diags, Diagnostic{
				Pos:      prog.Fset.Position(pos),
				Analyzer: "sinkdiscipline",
				Message:  msg + via,
			})
		}
		inspectShallow(r.fn.Body(), func(n ast.Node, _ []ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				callee := calleeOf(pkg, node)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				if msg := sinkCallViolation(callee, obsPath, recPath); msg != "" {
					report(node.Pos(), msg)
				}
			case *ast.IndexExpr:
				t := typeOf(pkg, node.X)
				if !isMapType(t) {
					return true
				}
				if isObsCellPtr(t.Underlying().(*types.Map).Elem(), obsPath) {
					report(node.Pos(), "metric cell fetched through a map on the hot path: hold the cell by value")
				}
			}
			return true
		})
	}
	return diags
}

// sinkCallViolation returns the diagnostic for a hot-path call into a
// sink package, or "" when the call is writer-side (or not a sink).
func sinkCallViolation(callee *types.Func, obsPath, recPath string) string {
	name, recv := callee.Name(), receiverTypeName(callee)
	switch callee.Pkg().Path() {
	case obsPath:
		switch {
		case recv == "Registry":
			return "obs.Registry." + name + " on the hot path: publishers must hold cells by value, registered at setup"
		case recv == "Histogram" && name == "Snapshot":
			return "Histogram.Snapshot on the hot path: snapshots are reader-side"
		case recv == "" && name == "NewRegistry":
			return "obs.NewRegistry on the hot path: registries are built at setup"
		}
	case recPath:
		switch {
		case recv == "Recorder" && (name == "Emit" || name == "Stamp"):
			return "" // the writer-side contract
		case recv == "Recorder":
			return "rec.Recorder." + name + " on the hot path: only Emit and Stamp are writer-side; seal and read after the run"
		default:
			return "rec." + name + " on the hot path: recorder setup and export are off-path; rings are built before the run"
		}
	}
	return ""
}

// receiverTypeName returns the bare receiver type name of a method
// ("Registry" for *obs.Registry), or "" for plain functions.
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isObsCellPtr reports whether t is *obs.Counter, *obs.Gauge, or
// *obs.Histogram.
func isObsCellPtr(t types.Type, obsPath string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != obsPath {
		return false
	}
	switch named.Obj().Name() {
	case "Counter", "Gauge", "Histogram":
		return true
	}
	return false
}
