package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path; the rules key off it.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Types *types.Package
}

// Loader parses and type-checks packages of one module. Module-internal
// imports are parsed and type-checked from source, because the rules
// need their syntax trees; standard-library imports are read from the
// compiler's export data (go/importer's "gc" importer, which asks
// `go list -export` for the file and builds it into the build cache if
// it is missing). No external dependencies.
type Loader struct {
	ModRoot string
	ModPath string
	Fset    *token.FileSet

	std  types.Importer
	pkgs map[string]*Package
	// loading guards against import cycles, which would otherwise
	// recurse forever.
	loading map[string]bool
}

// NewLoader builds a loader for the module rooted at modRoot (the
// directory holding go.mod).
func NewLoader(modRoot string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: modRoot,
		ModPath: modPath,
		Fset:    fset,
		std:     importer.ForCompiler(fset, "gc", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(p), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// FindModuleRoot walks up from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// LoadDir parses and type-checks the package in one directory. Test
// files are excluded: the contract rules police production code, and
// tests legitimately use seeded randomness and wall-clock deadlines.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.ModRoot)
	}
	path := l.ModPath
	if rel != "." {
		path = l.ModPath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

// Import implements types.Importer: module-internal packages are
// resolved from source under ModRoot, everything else goes to the
// standard library's export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		dir := l.ModRoot
		if path != l.ModPath {
			dir = filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath+"/")))
		}
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	p, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses every non-test .go file of one directory that selects
// the loader's host platform. Platform-specific files (GOOS/GOARCH
// filename suffixes, //go:build lines) would otherwise type-check as
// duplicate declarations — e.g. per-arch syscall-number constants.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		if !suffixMatchesHost(n) {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		src, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		if !buildLineMatchesHost(src) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s select %s/%s", dir, runtime.GOOS, runtime.GOARCH)
	}
	return files, nil
}

// knownOS and knownArch are the names that activate filename-suffix
// build constraints (a trailing _name only constrains when the name is
// a recognized GOOS or GOARCH — go/build's rule).
var knownOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "js": true,
	"linux": true, "netbsd": true, "openbsd": true, "plan9": true,
	"solaris": true, "wasip1": true, "windows": true,
}

var knownArch = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true,
	"loong64": true, "mips": true, "mips64": true, "mips64le": true,
	"mipsle": true, "ppc64": true, "ppc64le": true, "riscv64": true,
	"s390x": true, "sparc64": true, "wasm": true,
}

// unixOS lists the GOOS values the "unix" build tag covers.
var unixOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "linux": true,
	"netbsd": true, "openbsd": true, "solaris": true,
}

// suffixMatchesHost applies the *_GOOS.go / *_GOARCH.go /
// *_GOOS_GOARCH.go filename rules against the host platform.
func suffixMatchesHost(name string) bool {
	parts := strings.Split(strings.TrimSuffix(name, ".go"), "_")
	n := len(parts)
	if n >= 2 && knownArch[parts[n-1]] {
		if parts[n-1] != runtime.GOARCH {
			return false
		}
		if n >= 3 && knownOS[parts[n-2]] {
			return parts[n-2] == runtime.GOOS
		}
		return true
	}
	if n >= 2 && knownOS[parts[n-1]] {
		return parts[n-1] == runtime.GOOS
	}
	return true
}

// buildLineMatchesHost evaluates the file's //go:build line (if any)
// against the host platform. Tags beyond GOOS/GOARCH/unix — compiler
// names, go1.x release tags — are treated as satisfied; an unparsable
// expression never excludes a file (the compiler will complain, not us).
func buildLineMatchesHost(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "package ") {
			break
		}
		if !constraint.IsGoBuild(trimmed) {
			continue
		}
		expr, err := constraint.Parse(trimmed)
		if err != nil {
			return true
		}
		return expr.Eval(func(tag string) bool {
			switch {
			case tag == runtime.GOOS || tag == runtime.GOARCH:
				return true
			case tag == "unix":
				return unixOS[runtime.GOOS]
			case tag == "gc" || strings.HasPrefix(tag, "go1"):
				return true
			}
			return false
		})
	}
	return true
}

// check type-checks one package's files.
func (l *Loader) check(path string, files []*ast.File) (*Package, error) {
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.Fset, Files: files, Info: info, Types: tpkg}, nil
}

// PackageDirs lists every directory under root that holds a Go package,
// skipping testdata, hidden directories, and the zones corpus — the
// expansion of the `./...` pattern.
func PackageDirs(root string) ([]string, error) {
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
			name == "testdata" || name == "zones") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}
