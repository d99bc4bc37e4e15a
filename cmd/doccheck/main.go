// Command doccheck enforces the repository's documentation contract: every
// checked package must carry a package comment, and every exported
// identifier — functions, methods on exported types, types, consts and
// vars — must have a doc comment (a comment on a const/var group documents
// the whole group). It is the `make docs` / CI gate, a dependency-free
// stand-in for revive's exported rule.
//
// It also requires every exported identifier of a checked package to have
// a caller: some non-test .go file of the module, or any file under
// benchmark/, must reference it, as go/types resolves the reference, so
// a method is used on its own receiver and not by its name (see unused).
// An export that only tests
// reach is deleted, or its tests move onto the path production runs. The
// exceptions are the lines of allowlist.txt, beside this file, one
// "identifier  # reason" each, where the identifier is pkg.Name,
// pkg.Type.Method, a package directory or a file; a line that no longer
// matches a finding is itself a finding, so the list cannot go stale.
//
// Usage:
//
//	doccheck ./internal/...        # check all packages under internal/
//	doccheck ./internal/tfhe .     # explicit directories ('...' recurses)
//
// Exit status is 1 if any finding is reported, with one "file:line:
// finding" per offending identifier.
package main

import (
	_ "embed"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed allowlist.txt
var allowlist string

// allowFile names the allowlist in findings, relative to the module root.
const allowFile = "cmd/doccheck/allowlist.txt"

func main() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./internal/..."}
	}
	dirs, err := expand(patterns)
	if err != nil {
		fail(err)
	}
	root, err := moduleRoot()
	if err != nil {
		fail(err)
	}
	allow, err := parseAllow(allowlist)
	if err != nil {
		fail(err)
	}
	var findings []string
	var exps []export
	for _, dir := range dirs {
		fset, files, err := parseDir(dir)
		if err != nil {
			fail(err)
		}
		findings = append(findings, checkDocs(fset, files)...)
		rel, err := relDir(root, dir)
		if err != nil {
			fail(err)
		}
		exps = append(exps, exportsOf(fset, files, rel)...)
	}
	orphans, err := unused(root, exps)
	if err != nil {
		fail(err)
	}
	findings = append(findings, filterAllowed(orphans, allow, allowFile)...)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// moduleRoot returns the nearest directory at or above the working
// directory that holds a go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod at or above the working directory")
		}
		dir = parent
	}
}

// relDir returns dir, relative to the working directory, as a
// slash-separated path relative to root.
func relDir(root, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(root, abs)
	return filepath.ToSlash(rel), err
}

// expand resolves "dir/..." patterns to the list of directories that
// contain non-test Go files. A pattern that matches no Go package is an
// error, so a typo'd path can never turn the gate into a silent no-op.
func expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) bool {
		if seen[dir] {
			return true
		}
		if !hasGoFiles(dir) {
			return false
		}
		seen[dir] = true
		dirs = append(dirs, dir)
		return true
	}
	for _, pat := range patterns {
		if root, ok := strings.CutSuffix(pat, "/..."); ok {
			matched := false
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() && add(path) {
					matched = true
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			if !matched {
				return nil, fmt.Errorf("pattern %s matched no Go packages", pat)
			}
			continue
		}
		if !add(pat) {
			return nil, fmt.Errorf("%s contains no Go files", pat)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// parseDir parses the non-test files of one package directory.
func parseDir(dir string) (*token.FileSet, []*ast.File, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	return fset, files, nil
}

// checkDocs returns the documentation findings of one package's files.
func checkDocs(fset *token.FileSet, files []*ast.File) []string {
	if len(files) == 0 {
		return nil
	}

	var findings []string
	report := func(pos token.Pos, format string, args ...any) {
		findings = append(findings, fmt.Sprintf("%s: %s", fset.Position(pos), fmt.Sprintf(format, args...)))
	}

	hasPkgDoc := false
	for _, f := range files {
		if f.Doc != nil {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc {
		report(files[0].Package, "package %s has no package comment", files[0].Name.Name)
	}

	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedRecv(d) {
					continue
				}
				if d.Doc == nil {
					report(d.Pos(), "exported %s %s is undocumented", kindOf(d), d.Name.Name)
				}
			case *ast.GenDecl:
				checkGenDecl(d, report)
			}
		}
	}
	return findings
}

func kindOf(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// exportedRecv reports whether d is a plain function or a method on an
// exported type (methods on unexported types are not part of the API).
func exportedRecv(d *ast.FuncDecl) bool {
	return d.Recv == nil || len(d.Recv.List) == 0 || token.IsExported(recvName(d))
}

// recvName returns the name of a method's receiver type.
func recvName(d *ast.FuncDecl) string {
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = x.X
		case *ast.IndexListExpr: // T[P, Q]
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// checkGenDecl reports undocumented exported types, consts and vars. A doc
// comment on a const/var group documents every name in the group; types
// require a doc on the spec or on a single-spec declaration.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, ...any)) {
	switch d.Tok {
	case token.TYPE:
		for _, spec := range d.Specs {
			ts := spec.(*ast.TypeSpec)
			if !ts.Name.IsExported() {
				continue
			}
			if ts.Doc == nil && d.Doc == nil {
				report(ts.Pos(), "exported type %s is undocumented", ts.Name.Name)
			}
		}
	case token.CONST, token.VAR:
		if d.Doc != nil {
			return // a group comment covers every member
		}
		for _, spec := range d.Specs {
			vs := spec.(*ast.ValueSpec)
			if vs.Doc != nil || vs.Comment != nil {
				continue // per-spec doc or trailing comment
			}
			for _, name := range vs.Names {
				if name.IsExported() {
					report(name.Pos(), "exported %s %s is undocumented", d.Tok, name.Name)
				}
			}
		}
	}
}
