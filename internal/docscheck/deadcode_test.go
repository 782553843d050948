package docscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreferencedAllowlist names exported functions and methods under
// internal/ that no non-test Go file references by name but that stay on
// purpose, one line and one reason each. Keys are "pkg.Func" or
// "pkg.Type.Method".
var unreferencedAllowlist = map[string]string{
	"similarity.BruteForceTopK": "the brute-force reference FuzzTopK checks Index.TopK against",
	"similarity.Combined":       "the paper's combined operator that reference scores with; Index.TopK inlines it",
	"logic.NewClause":           "the clause constructor tests across the module build fixtures with",
	"persist.Key.Short":         "public through dlearn.SnapshotKey; README documents it",
	"persist.DirStore.MaxBytes": "public through dlearn.DirSnapshotStore; README documents it",
}

// goSourceFiles returns every non-test .go file of the repository,
// including cmd/, examples/ and perfbench/. Hidden directories (build
// output, VCS metadata) and testdata/ are skipped.
func goSourceFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(repoRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != repoRoot && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking the repository: %v", err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found; is repoRoot wrong?")
	}
	return files
}

// receiverTypeName returns the base type name of a method receiver,
// stripping pointers and type parameters.
func receiverTypeName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// TestNoUnreferencedInternalAPI fails when an exported top-level function
// or method declared under internal/ is referenced by name from no non-test
// Go file in the repository: such code ships but never runs outside tests.
// Matching is by bare name, so a use of any same-named identifier counts;
// the check can miss dead code but never flags live code. Test-only
// references do not count — a helper only tests need belongs in a
// _test.go file.
func TestNoUnreferencedInternalAPI(t *testing.T) {
	type decl struct{ qualified, name string }
	var decls []decl
	uses := make(map[string]int)
	fset := token.NewFileSet()
	internalDir := filepath.Join(repoRoot, "internal") + string(filepath.Separator)
	for _, path := range goSourceFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		declared := make(map[*ast.Ident]bool)
		if strings.HasPrefix(path, internalDir) {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				name := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					typ := receiverTypeName(fn.Recv.List[0].Type)
					if !ast.IsExported(typ) {
						continue
					}
					name = f.Name.Name + "." + typ + "." + fn.Name.Name
				}
				declared[fn.Name] = true
				decls = append(decls, decl{qualified: name, name: fn.Name.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/; is repoRoot wrong?")
	}
	var dead []string
	seen := make(map[string]bool)
	for _, d := range decls {
		seen[d.qualified] = true
		if uses[d.name] == 0 && unreferencedAllowlist[d.qualified] == "" {
			dead = append(dead, d.qualified)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is exported but no non-test Go file references it: delete it, move it into a _test.go file, or allowlist it with a reason", name)
	}
	for name := range unreferencedAllowlist {
		if !seen[name] {
			t.Errorf("allowlist entry %s names no declaration under internal/; remove it", name)
		}
	}
}
