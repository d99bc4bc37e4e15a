package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// maxAllow caps the allowlist: an export with no production caller is
// deleted, not parked, so the list stays short enough to read whole.
const maxAllow = 15

// export is one exported identifier declared in a checked package.
type export struct {
	pos    token.Position
	kind   string // "function", "method", "type", "const" or "var"
	name   string // Name, or Type.Method for a method
	method string // the method name alone; empty for the others
	pkg    string // package name
	dir    string // package directory, relative to the module root
	file   string // declaring file, relative to the module root
}

// key is how findings are named, and how the allowlist names them:
// pkg.Name, or pkg.Type.Method.
func (e export) key() string { return e.pkg + "." + e.name }

// uses is what the module's caller files reference.
type uses struct {
	refs     map[string]bool // "dir\x00Name": a package-level name, by declaring directory
	selected map[string]bool // every selected name, x.Name
	iface    map[string]bool // every method an interface declares
}

// unused returns the exports that no caller file of the module at root
// references apart from their own declaration. Caller files are the
// module's non-test .go files plus every .go file under benchmark/, whose
// tests drive the measured code and may not be edited to call it some
// other way. A package-level identifier is used when a caller names it,
// qualified from another package or bare inside its own; a method is used
// when a caller selects its name or an interface in the module declares
// it.
func unused(root string, exps []export) ([]export, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	callers, err := parseCallers(root)
	if err != nil {
		return nil, err
	}
	u := uses{refs: map[string]bool{}, selected: map[string]bool{}, iface: map[string]bool{}}
	for _, cf := range callers {
		u.add(cf, mod)
	}
	var out []export
	for _, e := range exps {
		used := u.refs[e.dir+"\x00"+e.name]
		if e.method != "" {
			used = u.selected[e.method] || u.iface[e.method]
		}
		if !used {
			out = append(out, e)
		}
	}
	return out, nil
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
}

// callerFile is one parsed caller file and its directory relative to root.
type callerFile struct {
	dir string
	f   *ast.File
}

// parseCallers parses every caller file of the module under root, skipping
// testdata, hidden directories and nested modules.
func parseCallers(root string) ([]callerFile, error) {
	fset := token.NewFileSet()
	var files []callerFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			base := d.Name()
			if rel != "." && (base == "testdata" || base == "vendor" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			if rel != "." {
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		if strings.HasSuffix(rel, "_test.go") && !strings.HasPrefix(rel, "benchmark/") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, callerFile{dir: path.Dir(rel), f: f})
		return nil
	})
	return files, err
}

// add records what one caller file references. A package of the module
// is named in the file by its import alias, or else by the last element
// of its path.
func (u *uses) add(cf callerFile, mod string) {
	imports := map[string]string{} // local name → directory relative to root
	for _, im := range cf.f.Imports {
		p := strings.Trim(im.Path.Value, `"`)
		dir, ok := strings.CutPrefix(p, mod+"/")
		if p == mod {
			dir, ok = ".", true
		}
		if !ok {
			continue
		}
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = dir
	}
	var visit func(ast.Node) bool
	walk := func(n ast.Node) { ast.Inspect(n, visit) }
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			u.selected[x.Sel.Name] = true
			if id, ok := x.X.(*ast.Ident); ok {
				if dir, ok := imports[id.Name]; ok {
					u.refs[dir+"\x00"+x.Sel.Name] = true
					return false
				}
			}
			walk(x.X)
			return false
		case *ast.Ident:
			u.refs[cf.dir+"\x00"+x.Name] = true
		case *ast.FuncDecl: // the name and receiver declare; they do not use
			walk(x.Type)
			if x.Body != nil {
				walk(x.Body)
			}
			return false
		case *ast.TypeSpec:
			if x.TypeParams != nil {
				walk(x.TypeParams)
			}
			walk(x.Type)
			return false
		case *ast.ValueSpec:
			if x.Type != nil {
				walk(x.Type)
			}
			for _, v := range x.Values {
				walk(v)
			}
			return false
		case *ast.Field: // field and parameter names declare
			walk(x.Type)
			return false
		case *ast.InterfaceType:
			for _, m := range x.Methods.List {
				for _, name := range m.Names {
					u.iface[name.Name] = true
				}
			}
		}
		return true
	}
	for _, decl := range cf.f.Decls {
		walk(decl)
	}
}

// exportsOf lists the exported identifiers of one package's non-test
// files, in directory dir relative to the module root: functions, methods
// on exported types, types, and package-level consts and vars.
func exportsOf(fset *token.FileSet, files []*ast.File, dir string) []export {
	var out []export
	for _, f := range files {
		pos := fset.Position(f.Package)
		file := path.Join(dir, filepath.Base(pos.Filename))
		add := func(id *ast.Ident, kind, full, method string) {
			pos := fset.Position(id.Pos())
			pos.Filename = file
			out = append(out, export{pos: pos, kind: kind, name: full, method: method, pkg: f.Name.Name, dir: dir, file: file})
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported() || !exportedRecv(d):
				case d.Recv == nil:
					add(d.Name, "function", d.Name.Name, "")
				default:
					add(d.Name, "method", recvName(d)+"."+d.Name.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(s.Name, "type", s.Name.Name, "")
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								add(id, d.Tok.String(), id.Name, "")
							}
						}
					}
				}
			}
		}
	}
	return out
}

// allowEntry is one allowlist line and what it names: a key (pkg.Name or
// pkg.Type.Method), or a package directory or a file relative to the
// module root.
type allowEntry struct {
	line  int
	entry string
}

// parseAllow reads an allowlist: one "entry  # reason" per non-blank line.
func parseAllow(text string) ([]allowEntry, error) {
	var out []allowEntry
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		entry, reason, ok := strings.Cut(line, "#")
		entry, reason = strings.TrimSpace(entry), strings.TrimSpace(reason)
		if !ok || entry == "" || reason == "" || strings.ContainsAny(entry, " \t") {
			return nil, fmt.Errorf("allowlist line %d: want \"identifier  # reason\", got %q", n, line)
		}
		out = append(out, allowEntry{line: n, entry: entry})
	}
	if len(out) > maxAllow {
		return nil, fmt.Errorf("allowlist has %d entries, at most %d allowed", len(out), maxAllow)
	}
	return out, nil
}

// filterAllowed returns a finding line for every export no allowlist entry
// covers, then one for every entry that covers no export (a stale line);
// allowFile names the allowlist in those lines.
func filterAllowed(exps []export, allow []allowEntry, allowFile string) []string {
	used := make([]bool, len(allow))
	var out []string
	for _, e := range exps {
		covered := false
		for i, a := range allow {
			if a.entry == e.key() || a.entry == e.dir || a.entry == e.file {
				covered, used[i] = true, true
			}
		}
		if !covered {
			out = append(out, fmt.Sprintf("%s: exported %s %s has no caller outside tests", e.pos, e.kind, e.key()))
		}
	}
	sort.Strings(out)
	for i, a := range allow {
		if !used[i] {
			out = append(out, fmt.Sprintf("%s:%d: stale entry %s: it names no export without a caller", allowFile, a.line, a.entry))
		}
	}
	return out
}
