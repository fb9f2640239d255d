package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	Path  string // import path, e.g. smtpsim/internal/stats
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Internal reports whether the package lives under internal/.
func (p *Package) Internal() bool {
	return strings.Contains(p.Path, "/internal/") || strings.HasSuffix(p.Path, "/internal")
}

// Module is the loaded module: every non-test package, type-checked, plus
// the shared fileset.
type Module struct {
	Root     string // absolute module root (directory of go.mod)
	Path     string // module path from go.mod
	Fset     *token.FileSet
	Packages []*Package // sorted by import path

	byPath map[string]*Package
}

// rel makes a filename module-root-relative for stable diagnostics.
func (m *Module) rel(filename string) string {
	if r, err := filepath.Rel(m.Root, filename); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return filename
}

// Load parses and type-checks every non-test package under root, which
// must contain a go.mod. Imports within the module are resolved against
// the loaded source; all other imports are type-checked from GOROOT
// source via the stdlib "source" importer. Directories named testdata,
// hidden directories and vendored trees are skipped.
func Load(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := &Module{
		Root:   root,
		Path:   modPath,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
	}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	parsed := make(map[string][]*ast.File) // import path -> files
	dirOf := make(map[string]string)
	for _, dir := range dirs {
		files, perr := parseDir(mod.Fset, dir)
		if perr != nil {
			return nil, perr
		}
		if len(files) == 0 {
			continue
		}
		ip := modPath
		if rel, _ := filepath.Rel(root, dir); rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		parsed[ip] = files
		dirOf[ip] = dir
	}

	ld := &moduleImporter{
		mod:     mod,
		parsed:  parsed,
		dirOf:   dirOf,
		std:     importer.ForCompiler(mod.Fset, "source", nil),
		loading: make(map[string]bool),
	}
	paths := make([]string, 0, len(parsed))
	for ip := range parsed {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := ld.load(ip); err != nil {
			return nil, err
		}
	}
	sort.Slice(mod.Packages, func(i, j int) bool {
		return mod.Packages[i].Path < mod.Packages[j].Path
	})
	return mod, nil
}

// moduleImporter type-checks module packages on demand, delegating
// everything outside the module to the GOROOT source importer.
type moduleImporter struct {
	mod     *Module
	parsed  map[string][]*ast.File
	dirOf   map[string]string
	std     types.Importer
	loading map[string]bool
}

// Import implements types.Importer for the checker's dependency loads.
func (l *moduleImporter) Import(path string) (*types.Package, error) {
	if path == l.mod.Path || strings.HasPrefix(path, l.mod.Path+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load type-checks one module package (memoized).
func (l *moduleImporter) load(path string) (*Package, error) {
	if p, ok := l.mod.byPath[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	files, ok := l.parsed[path]
	if !ok {
		return nil, fmt.Errorf("lint: module package %s not found on disk", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.mod.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{
		Path:  path,
		Dir:   l.dirOf[path],
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.mod.byPath[path] = p
	l.mod.Packages = append(l.mod.Packages, p)
	return p, nil
}

// parseDir parses the non-test Go files of one directory that match the
// default build configuration (file-name and //go:build constraints), so
// a package with per-platform or per-tag variants stays type-checkable.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, merr := build.Default.MatchFile(dir, name); merr != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// packageDirs walks root collecting directories that may hold Go packages.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (simlint must run at the module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(rest); err == nil {
				rest = unq
			}
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module path in %s", gomod)
}
