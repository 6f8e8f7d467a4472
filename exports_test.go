package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that no
// non-test file references, each with the reason it stays exported. Keys
// are "pkg.Name" or "pkg.Type.Method".
var exportAllowlist = map[string]string{
	"bpt.MergeCuts":            "reference the cache's cut merge is compared against (internal/core tests)",
	"bpt.Tree.ExpandCut":       "reference the packed adaptive form is compared against (internal/server tests)",
	"bpt.Tree.Frontier":        "reference the packed adaptive form is compared against (internal/server tests)",
	"bpt.Tree.ValidateCut":     "invariant checker the server tests run over shipped cuts",
	"bpt.Tree.RootCut":         "pending ROADMAP item 15: moves into _test.go files with the pointer tree",
	"bpt.Tree.PartialFrontier": "pending ROADMAP item 15: moves into _test.go files with the pointer tree",

	"cluster.ShardTransport":       "reference shard the durability and load tests build routers over; pending ROADMAP item 15",
	"cluster.Partition.LeafRegion": "pending ROADMAP item 15",
	"core.Cache.ShrinkTo":          "pending ROADMAP item 15",
	"core.Cache.Validate":          "invariant checker the cache tests run after every operation",
	"query.SeedRoot":               "pending ROADMAP item 15",
	"rtree.Tree.RangeQuery":        "pending ROADMAP item 15",
	"rtree.Tree.DistanceWithin":    "pending ROADMAP item 15",
	"rtree.Tree.Validate":          "invariant checker the tree, server, core and sim tests run after mutations",
	"rtree.Packed.Positions":       "pending ROADMAP item 15",
	"sim.TestScale":                "pending ROADMAP item 15",
}

// TestInternalExportsHaveProductionCallers: every exported identifier
// declared in a non-test file under internal/ is referenced from some
// non-test Go file in the repository (benchmark/, cmd/, examples/ and the
// root included), or is allowlisted above with its reason. The root facade
// is the public library API and is not scanned. The scan matches names
// only, so a method that shares a name with a referenced one escapes it:
// it is a floor, not a proof.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		paths = append(paths, filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations under internal/, keyed by "pkg.Name" or
	// "pkg.Type.Method", and the identifiers that declare them.
	declared := map[string]string{} // key -> referenced name
	declIdents := map[*ast.Ident]bool{}
	for i, f := range files {
		if !strings.HasPrefix(paths[i], "internal/") {
			continue
		}
		pkg := f.Name.Name
		add := func(key string, id *ast.Ident) {
			if id.IsExported() {
				declared[key] = id.Name
				declIdents[id] = true
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(pkg+"."+d.Name.Name, d.Name)
				} else if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
					add(pkg+"."+recv+"."+d.Name.Name, d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(pkg+"."+s.Name.Name, s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(pkg+"."+id.Name, id)
						}
					}
				}
			}
		}
	}

	// References: every identifier that does not declare something, a
	// struct field or an interface method.
	referenced := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					declIdents[id] = true
				}
			case *ast.Ident:
				if !declIdents[n] {
					referenced[n.Name] = true
				}
			}
			return true
		})
	}

	var unused []string
	for key, name := range declared {
		if !referenced[name] {
			unused = append(unused, key)
		}
	}
	slices.Sort(unused)
	for _, key := range unused {
		if _, ok := exportAllowlist[key]; !ok {
			t.Errorf("%s is exported but no non-test file references it: unexport it, move it into a _test.go file, delete it, or allowlist it with its reason", key)
		}
	}
	for key := range exportAllowlist {
		if !slices.Contains(unused, key) {
			t.Errorf("allowlist entry %s is stale: the identifier is gone or now has a non-test reference", key)
		}
	}
	if len(declared) < 200 {
		t.Fatalf("found only %d exported identifiers under internal/; the scan is broken", len(declared))
	}
}

// receiverName returns the type name of a method receiver expression.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
