// Package docscheck is the repository's documentation checker: tests that
// walk every Markdown file at the repo root and under docs/ and verify that
// (a) relative links resolve to files that exist (including heading anchors
// within this repository's own files) and (b) references to Go identifiers
// — `dlearn.Foo` mentions, option functions like `WithThreads(n)`, and
// internal references like `coverage.Evaluator.ScoreCandidates` — name
// identifiers that still exist, so an API rename breaks the build instead of
// silently stranding the README. A third test keeps exported internal
// functions that no program file calls from shipping. CI runs it as the docs
// job; locally it is part of the ordinary test suite.
package docscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot locates the repository root relative to this package.
const repoRoot = "../.."

// markdownFiles returns the Markdown files the checker covers: the README
// plus everything under docs/, recursively. Generated reference artifacts
// at the root (SNIPPETS.md, PAPERS.md, ...) quote links from external
// repositories verbatim and are deliberately out of scope.
func markdownFiles(t *testing.T) []string {
	t.Helper()
	files := []string{filepath.Join(repoRoot, "README.md")}
	docsDir := filepath.Join(repoRoot, "docs")
	if _, err := os.Stat(docsDir); err == nil {
		err := filepath.WalkDir(docsDir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(d.Name(), ".md") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking docs/: %v", err)
		}
	}
	if len(files) == 0 {
		t.Fatal("no Markdown files found; is repoRoot wrong?")
	}
	return files
}

// linkPattern matches inline Markdown links [text](target). Images and
// reference-style links are out of scope; the repo uses inline links.
var linkPattern = regexp.MustCompile(`\]\(([^()\s]+)\)`)

// headingAnchors returns the GitHub-style anchors of a Markdown file's
// headings.
func headingAnchors(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	anchors := make(map[string]bool)
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimSpace(strings.TrimLeft(line, "#"))
		// GitHub anchor rule: lowercase, drop everything but letters,
		// digits, underscores, spaces and hyphens, then hyphenate spaces.
		var b strings.Builder
		for _, r := range strings.ToLower(text) {
			switch {
			case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
				b.WriteRune(r)
			case r == ' ':
				b.WriteByte('-')
			}
		}
		anchors["#"+b.String()] = true
	}
	return anchors, nil
}

// TestMarkdownLinksResolve fails on any relative link whose target file (or
// in-repo heading anchor) does not exist. External links are shape-checked
// only — no network in tests.
func TestMarkdownLinksResolve(t *testing.T) {
	for _, file := range markdownFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		for _, m := range linkPattern.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue
			}
			rel, frag := target, ""
			if i := strings.IndexByte(target, '#'); i >= 0 {
				rel, frag = target[:i], target[i:]
			}
			resolved := file
			if rel != "" {
				resolved = filepath.Join(filepath.Dir(file), rel)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q: %v", displayPath(file), target, err)
					continue
				}
			}
			if frag != "" && frag != "#" && strings.HasSuffix(resolved, ".md") {
				anchors, err := headingAnchors(resolved)
				if err != nil {
					t.Errorf("%s: reading anchor target %q: %v", displayPath(file), target, err)
					continue
				}
				if !anchors[frag] {
					t.Errorf("%s: link %q points to a heading %q that does not exist in %s",
						displayPath(file), target, frag, displayPath(resolved))
				}
			}
		}
	}
}

// TestArchitectureDocIsLinked pins the README ↔ docs contract: the
// architecture document must stay reachable from the README.
func TestArchitectureDocIsLinked(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join(repoRoot, "README.md"))
	if err != nil {
		t.Fatalf("reading README: %v", err)
	}
	if !strings.Contains(string(readme), "docs/ARCHITECTURE.md") {
		t.Error("README.md does not link docs/ARCHITECTURE.md")
	}
}

// publicIdentifiers parses the non-test Go files of the root dlearn package
// and returns every top-level declared name: functions, types (including
// aliases), consts and vars. Methods are excluded — docs reference them
// through a value, not as dlearn.X.
func publicIdentifiers(t *testing.T) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(repoRoot, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no public identifiers found; is repoRoot wrong?")
	}
	return names
}

// qualifiedRefPattern matches dlearn.Identifier references anywhere in a
// Markdown file (code spans and fenced blocks included — both document the
// public API).
var qualifiedRefPattern = regexp.MustCompile(`\bdlearn\.([A-Z][A-Za-z0-9_]*)`)

// optionRefPattern matches option-function references in code spans, e.g.
// `WithThreads(n)` or `WithSnapshotStore(s)`. The With prefix is the public
// API's option naming convention, so a code span leading with it is an API
// reference, not prose.
var optionRefPattern = regexp.MustCompile("`(With[A-Z][A-Za-z0-9_]*)")

// internalDeclarations parses the non-test Go files under internal/ and
// returns, per package name, every name a Markdown reference can resolve
// to: top-level declarations ("Ident") plus the methods, struct fields and
// interface methods of declared types ("Type.Member").
func internalDeclarations(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(repoRoot, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := decls[f.Name.Name]
		if names == nil {
			names = make(map[string]bool)
			decls[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && len(d.Recv.List) == 1 {
					names[receiverTypeName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				} else {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						var members *ast.FieldList
						switch typ := s.Type.(type) {
						case *ast.StructType:
							members = typ.Fields
						case *ast.InterfaceType:
							members = typ.Methods
						}
						if members == nil {
							continue
						}
						for _, field := range members.List {
							for _, n := range field.Names {
								names[s.Name.Name+"."+n.Name] = true
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("parsing internal/: %v", err)
	}
	if len(decls) == 0 {
		t.Fatal("no internal packages found; is repoRoot wrong?")
	}
	return decls
}

// codeSpanPattern matches an inline Markdown code span.
var codeSpanPattern = regexp.MustCompile("`[^`\n]+`")

// internalRefPattern matches pkg.Ident and pkg.Type.Member references
// inside a code span, e.g. `coverage.Evaluator.ScoreCandidates`. Only
// references whose pkg names an internal package are checked, so standard
// library mentions such as `context.WithTimeout` pass through.
var internalRefPattern = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z][A-Za-z0-9_]*))?`)

// TestMarkdownAPIReferencesExist fails on any Markdown reference to a public
// dlearn identifier, or to an identifier of an internal package, that is no
// longer declared — the docs-drift guard for the sections that document
// engine options, observer events, persistence types and the internals.
func TestMarkdownAPIReferencesExist(t *testing.T) {
	names := publicIdentifiers(t)
	internal := internalDeclarations(t)
	for _, file := range markdownFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		text := string(data)
		for _, m := range qualifiedRefPattern.FindAllStringSubmatch(text, -1) {
			if !names[m[1]] {
				t.Errorf("%s: references dlearn.%s, which is not declared in the public API", displayPath(file), m[1])
			}
		}
		for _, m := range optionRefPattern.FindAllStringSubmatch(text, -1) {
			if !names[m[1]] {
				t.Errorf("%s: references option %s, which is not declared in the public API", displayPath(file), m[1])
			}
		}
		for _, span := range codeSpanPattern.FindAllString(text, -1) {
			for _, m := range internalRefPattern.FindAllStringSubmatch(span, -1) {
				pkg := internal[m[1]]
				if pkg == nil {
					continue
				}
				ref := m[2]
				if m[3] != "" {
					ref += "." + m[3]
				}
				if !pkg[ref] {
					t.Errorf("%s: references %s.%s, which internal package %s does not declare", displayPath(file), m[1], ref, m[1])
				}
			}
		}
	}
}

// displayPath renders a checked file relative to the repo root for readable
// failure messages.
func displayPath(path string) string {
	rel, err := filepath.Rel(repoRoot, path)
	if err != nil {
		return path
	}
	return rel
}
