package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the package's import path ("oftec/internal/units").
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// moduleImporter type-checks module-internal packages from source and
// delegates standard-library imports to go/importer's source importer,
// which needs no precompiled export data. It implements types.Importer.
type moduleImporter struct {
	modulePath string
	local      map[string]*Package // checked module packages by import path
	std        types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := mi.local[path]; ok {
		return p.Types, nil
	}
	if strings.HasPrefix(path, mi.modulePath+"/") || path == mi.modulePath {
		return nil, fmt.Errorf("lint: module package %q not loaded (import cycle or load order bug)", path)
	}
	return mi.std.Import(path)
}

// readModulePath reads the module path out of root/go.mod.
func readModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// LoadModule parses and type-checks every non-test package under the
// module rooted at root (the directory containing go.mod). Directories
// named testdata, hidden directories, and _test.go files are skipped;
// test-only invariants are the compiler's and `go vet`'s problem, and
// excluding them keeps external-test-package handling out of the loader.
// Packages are returned sorted by import path.
func LoadModule(root string) ([]*Package, error) {
	modPath, err := readModulePath(root)
	if err != nil {
		return nil, err
	}

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	type parsed struct {
		path    string
		dir     string
		files   []*ast.File
		imports map[string]bool
	}
	byPath := map[string]*parsed{}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		files, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		p := &parsed{path: ip, dir: dir, files: files, imports: map[string]bool{}}
		for _, f := range files {
			for _, imp := range f.Imports {
				p.imports[strings.Trim(imp.Path.Value, `"`)] = true
			}
		}
		byPath[ip] = p
	}

	// Topological order over module-internal imports so every dependency
	// is checked before its importers.
	mi := &moduleImporter{
		modulePath: modPath,
		local:      map[string]*Package{},
		std:        importer.ForCompiler(fset, "source", nil),
	}
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(ip string) error
	visit = func(ip string) error {
		switch state[ip] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", ip)
		case 2:
			return nil
		}
		state[ip] = 1
		var deps []string
		for dep := range byPath[ip].imports {
			if _, ok := byPath[dep]; ok {
				deps = append(deps, dep)
			}
		}
		sort.Strings(deps)
		for _, dep := range deps {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[ip] = 2
		order = append(order, ip)
		return nil
	}
	var roots []string
	for ip := range byPath {
		roots = append(roots, ip)
	}
	sort.Strings(roots)
	for _, ip := range roots {
		if err := visit(ip); err != nil {
			return nil, err
		}
	}

	var pkgs []*Package
	for _, ip := range order {
		p := byPath[ip]
		pkg, err := check(fset, ip, p.dir, p.files, mi)
		if err != nil {
			return nil, err
		}
		mi.local[ip] = pkg
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir parses and type-checks a single directory as the package
// importPath. The directory may import only the standard library; it is
// the fixture loader for analyzer tests, where importPath simulates the
// package's position in the module (e.g. "oftec/internal/units").
func LoadDir(dir, importPath string) (*Package, error) {
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return check(fset, importPath, dir, files, importer.ForCompiler(fset, "source", nil))
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
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

func check(fset *token.FileSet, importPath, dir string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{Path: importPath, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
