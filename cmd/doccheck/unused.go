package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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

// unused returns the exports that no caller file of the module at root
// references apart from their own declaration. Caller files are the
// module's non-test .go files plus every .go file under benchmark/, whose
// tests drive the measured code and may not be edited to call it some
// other way. They are type-checked (go/types, the standard library from
// source), so every reference resolves to the object it names: a
// package-level identifier is used when a caller names it, qualified from
// another package or bare inside its own; a method is used when a caller
// selects it on its own receiver type (or on a type that embeds it), not
// merely a method of the same name, or when its type implements an
// interface in play that declares it — the type of some expression,
// variable, field or parameter of the caller files, or error or
// fmt.Stringer, which the standard library calls dynamically.
func unused(root string, exps []export) ([]export, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, mod)
	if err := l.checkCallers(); err != nil {
		return nil, err
	}
	refs := l.refs()
	ifaces := l.interfaces()
	var out []export
	for _, e := range exps {
		if !refs[e.dir+"\x00"+e.name] && !(e.method != "" && l.implements(e, ifaces)) {
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

// loader type-checks the module's packages from source. A module import
// resolves to its directory under root and is checked once, recording
// into the one shared Info; any other import is the standard library,
// which go/importer's "source" mode checks from GOROOT, offline.
type loader struct {
	root, mod string
	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*types.Package // module packages by import path
	info      *types.Info
	recv      map[*ast.Ident]bool // receiver type names: they declare, they do not use
}

func newLoader(root, mod string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root: root, mod: mod, fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		recv: map[*ast.Ident]bool{},
	}
}

// dirOf returns the directory, relative to root, of a module import path.
func (l *loader) dirOf(path string) (string, bool) {
	if path == l.mod {
		return ".", true
	}
	return strings.CutPrefix(path, l.mod+"/")
}

// Import implements types.Importer: a module package's non-test files of
// the default build, or a standard library package.
func (l *loader) Import(path string) (*types.Package, error) {
	dir, ok := l.dirOf(path)
	if !ok {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(filepath.Join(l.root, dir), 0)
	if err != nil {
		return nil, err
	}
	p, err := l.check(path, dir, bp.GoFiles)
	l.pkgs[path] = p
	return p, err
}

// check parses and type-checks one package from the named files of dir.
func (l *loader) check(path, dir string, names []string) (*types.Package, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(l.root, dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						l.recv[id] = true
					}
					return true
				})
			}
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	return conf.Check(path, l.fset, files, l.info)
}

// checkCallers type-checks every caller package under root, skipping
// testdata, hidden directories and nested modules: each package's
// non-test files, and under benchmark/ its test files too (an external
// test package on its own).
func (l *loader) checkCallers() error {
	return filepath.WalkDir(l.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(l.root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if base := d.Name(); rel != "." {
			if base == "testdata" || base == "vendor" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(p, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		path := l.mod
		if rel != "." {
			path += "/" + rel
		}
		if rel != "benchmark" && !strings.HasPrefix(rel, "benchmark/") {
			_, err := l.Import(path)
			return err
		}
		if _, err := l.check(path, rel, append(bp.GoFiles, bp.TestGoFiles...)); err != nil {
			return err
		}
		if len(bp.XTestGoFiles) > 0 {
			_, err = l.check(path+"_test", rel, bp.XTestGoFiles)
		}
		return err
	})
}

// refs returns what the caller files reference, keyed as exports are:
// "dir\x00Name" for a package-level identifier and "dir\x00Type.Method"
// for a method, by the directory of the declaring module package.
func (l *loader) refs() map[string]bool {
	refs := map[string]bool{}
	for id, obj := range l.info.Uses {
		if l.recv[id] || obj.Pkg() == nil {
			continue
		}
		dir, ok := l.dirOf(obj.Pkg().Path())
		if !ok {
			continue
		}
		switch {
		case obj.Parent() == obj.Pkg().Scope():
			refs[dir+"\x00"+obj.Name()] = true
		case isMethod(obj):
			if named := recvNamed(obj.(*types.Func)); named != nil {
				refs[dir+"\x00"+named.Obj().Name()+"."+obj.Name()] = true
			}
		}
	}
	return refs
}

// isMethod reports whether obj is a function with a receiver.
func isMethod(obj types.Object) bool {
	f, ok := obj.(*types.Func)
	return ok && f.Type().(*types.Signature).Recv() != nil
}

// recvNamed returns the named type a method is declared on, through a
// pointer receiver, or nil for an interface method.
func recvNamed(f *types.Func) *types.Named {
	t := f.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && !types.IsInterface(n) {
		return n
	}
	return nil
}

// interfaces returns the interfaces in play: every interface type with
// methods that is, or is reached from, the type of an expression or of an
// object the caller files declare or use, plus error and fmt.Stringer.
func (l *loader) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[types.Type]bool{}
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch x := t.(type) {
		case *types.Named:
			visit(x.Underlying())
		case *types.Interface:
			if x.NumMethods() > 0 {
				out = append(out, x)
			}
		case *types.Pointer:
			visit(x.Elem())
		case *types.Slice:
			visit(x.Elem())
		case *types.Array:
			visit(x.Elem())
		case *types.Map:
			visit(x.Key())
			visit(x.Elem())
		case *types.Chan:
			visit(x.Elem())
		case *types.Signature:
			visit(x.Params())
			visit(x.Results())
		case *types.Tuple:
			for i := 0; i < x.Len(); i++ {
				visit(x.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < x.NumFields(); i++ {
				visit(x.Field(i).Type())
			}
		}
	}
	for _, tv := range l.info.Types {
		visit(tv.Type)
	}
	for _, objs := range []map[*ast.Ident]types.Object{l.info.Defs, l.info.Uses} {
		for _, obj := range objs {
			if obj != nil {
				visit(obj.Type())
			}
		}
	}
	visit(types.Universe.Lookup("error").Type())
	if fmtPkg, err := l.Import("fmt"); err == nil {
		visit(fmtPkg.Scope().Lookup("Stringer").Type())
	}
	return out
}

// implements reports whether method export e's type, or a pointer to it,
// implements an interface of ifaces that declares the method.
func (l *loader) implements(e export, ifaces []*types.Interface) bool {
	path := l.mod
	if e.dir != "." {
		path += "/" + e.dir
	}
	p := l.pkgs[path]
	if p == nil {
		return false
	}
	tn, ok := p.Scope().Lookup(strings.TrimSuffix(e.name, "."+e.method)).(*types.TypeName)
	if !ok {
		return false
	}
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, e.method); obj == nil {
			continue
		}
		if types.Implements(tn.Type(), it) || types.Implements(types.NewPointer(tn.Type()), it) {
			return true
		}
	}
	return false
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
