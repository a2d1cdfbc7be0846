package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadModule parses every non-test package under root, the directory
// containing go.mod, and returns them sorted by import path. Package
// paths are derived from the module clause, so scope-gated analyzers
// see the same identities ("socialscope/internal/wal") the compiler
// does. Skipped: hidden directories, testdata trees (analyzer golden
// files are deliberately full of violations), directories below root
// with a go.mod of their own (nested modules, which the go tool's
// "./..." excludes too), and _test.go files (test code is itself
// harness code — it exercises the raw filesystem and the fault injector
// on purpose).
func LoadModule(root string) ([]*Package, error) {
	module, err := moduleName(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := module
		if rel != "." {
			importPath = module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := LoadDir(path, importPath)
		if err != nil {
			return err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadGOPATHTree parses every package under srcRoot, a GOPATH-style
// "src" directory where each package's import path is its path
// relative to srcRoot. This is the analysistest layout: golden files
// live at testdata/src/<importpath>/ so that path-scoped analyzers
// (vfsseam, ctxflow) treat them exactly like the real packages they
// mirror.
func LoadGOPATHTree(srcRoot string) ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(srcRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(srcRoot, path)
		if err != nil || rel == "." {
			return err
		}
		pkg, err := LoadDir(path, filepath.ToSlash(rel))
		if err != nil {
			return err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir parses the single package in dir, if any. Returns (nil, nil)
// for directories with no non-test Go files.
func LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var pkgName string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	return &Package{Path: importPath, Name: pkgName, Fset: fset, Files: files}, nil
}

// Match reports whether the package path matches a go-style pattern:
// "p" exactly, or "p/..." for p and everything under it ("./..."
// callers resolve the prefix to an import path first).
func Match(pattern, pkgPath string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/")
	}
	return pkgPath == pattern
}

func moduleName(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module clause", gomod)
}
