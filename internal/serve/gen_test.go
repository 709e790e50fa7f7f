package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestEveryStatusWriteBumpsTheGeneration: a scrape skips an instance
// whose status generation held (metrics.go), so a write to status in a
// function that does not bump the generation leaves the exposition
// printing stale values. Every assignment to an Instance's status or to
// anything below it, and every method called on it, must sit in a
// function — the innermost declaration or literal — that calls
// notifyLocked.
func TestEveryStatusWriteBumpsTheGeneration(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	// newInstance writes status before the instance is listed: no scrape
	// has read a generation of it yet.
	unpublished := map[string]bool{"newInstance": true}
	reachesStatus := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if x.Sel.Name == "status" {
					return true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return false
			}
		}
	}
	writes := 0
	var check func(name string, body *ast.BlockStmt)
	check = func(name string, body *ast.BlockStmt) {
		var at []ast.Node
		bumps := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				check(name+"'s func literal", n.Body)
				return false
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if reachesStatus(l) {
						at = append(at, l)
					}
				}
			case *ast.IncDecStmt:
				if reachesStatus(n.X) {
					at = append(at, n)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "notifyLocked" {
					bumps = true
				} else if ok && reachesStatus(sel.X) {
					at = append(at, n)
				}
			}
			return true
		})
		writes += len(at)
		for _, n := range at {
			if !bumps {
				t.Errorf("%s: %s writes an instance's status and does not bump its generation (notifyLocked)", fset.Position(n.Pos()), name)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && !unpublished[fd.Name.Name] {
					check(fd.Name.Name, fd.Body)
				}
			}
		}
	}
	if writes < 20 {
		t.Fatalf("found %d writes to status; the scan is not seeing the package", writes)
	}
}

// TestSteppedEpochAllocatesNothing: with the restart-checkpoint refresh
// out of range, an epoch stepped in the serve layer allocates nothing —
// no channel for change waiters no one registered, no boxed SLO status.
func TestSteppedEpochAllocatesNothing(t *testing.T) {
	s := New(Config{Lab: testLab, checkpointEpochs: 1 << 30})
	defer s.Close()
	// Due once a simulated year has passed: only the test steps it.
	inst, err := s.CreateInstance(InstanceSpec{Load: 0.4, Speed: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	inst.stepMu.Lock()
	defer inst.stepMu.Unlock()
	for range traceRingCap { // the span ring grows to its cap
		inst.step()
	}
	if got := testing.AllocsPerRun(100, inst.step); got != 0 {
		t.Fatalf("a stepped epoch allocates %v times, want 0", got)
	}
}
