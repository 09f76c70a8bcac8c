package bgla

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wallClockFuncs are the package time functions that read or wait on
// the wall clock. Protocol and harness code takes its time from an
// obs.Clock instead, so that the deterministic network's virtual time
// reaches every timestamp it cares about.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Tick": true, "Sleep": true,
}

// wallClockAllowed lists the remaining wall-clock uses, keyed by file
// and time function (not by line, so edits elsewhere in a file do not
// disturb it). Shrink it as uses move onto obs.Clock; an entry that no
// longer matches anything fails the test so the list cannot go stale.
var wallClockAllowed = map[string]bool{
	"internal/batch/batch.go time.AfterFunc":   true, // flight expiry tick
	"store.go time.NewTimer":                   true, // scan retry backoff
	"internal/faultnet/faultnet.go time.Sleep": true, // admission stability window
}

// wallClockExempt are the packages whose job is the wall clock: the
// clock seam itself, the real-time transports and the load generator.
var wallClockExempt = map[string]bool{
	"internal/obs": true, "internal/tcpnet": true,
	"internal/chanet": true, "internal/workload": true,
}

// TestWallClockSeam fails on any reference to a wall-clock function of
// package time in the non-test sources of the root package and
// internal/ that is not on the allowlist.
func TestWallClockSeam(t *testing.T) {
	var files []string
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, root...)
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if wallClockExempt[filepath.ToSlash(path)] || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var bad []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		name := timeImportName(f)
		if name == "" {
			continue
		}
		if name == "." {
			bad = append(bad, path+": dot-imports package time")
			continue
		}
		rel := filepath.ToSlash(path)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); !ok || id.Name != name {
				return true
			}
			key := rel + " time." + sel.Sel.Name
			if wallClockAllowed[key] {
				seen[key] = true
			} else {
				bad = append(bad, fset.Position(sel.Pos()).String()+": time."+sel.Sel.Name)
			}
			return true
		})
	}
	for key := range wallClockAllowed {
		if !seen[key] {
			bad = append(bad, "allowlist entry no longer used: "+key)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// timeImportName returns the name under which f imports package time
// ("" when it does not).
func timeImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err != nil || p != "time" {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "time"
	}
	return ""
}
