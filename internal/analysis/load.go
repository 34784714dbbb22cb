package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The loader below exists because this module carries no third-party
// dependencies: instead of golang.org/x/tools/go/packages, module packages
// are enumerated with `go list -export` and type-checked from source
// against the toolchain's gc export data. The analyzers' fixtures load the
// same way, each named by its explicit ./testdata/src/<name> path.

// listedPkg is the subset of `go list -json` this loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	SFiles     []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
}

// ModuleSet is the result of loading a module: the packages selected for
// analysis (Targets), every module package with syntax loaded (All —
// including dep-only ones, which the interprocedural engine needs for
// call-graph summaries), and a directive index covering all of them.
type ModuleSet struct {
	All        []*Package // every non-standard package, in import-path order
	Targets    []*Package // the subset matching the load patterns
	Directives *Index
}

// Program builds the interprocedural view over the loaded module.
func (set *ModuleSet) Program() *Program {
	return NewProgram(set.All, set.Targets, set.Directives)
}

// LoadModule lists patterns (e.g. "./...") in moduleDir with their deps,
// type-checks every non-standard package from source against gc export
// data, and collects secemb directives module-wide. Standard-library
// packages are consumed as export data only and are never analyzed.
func LoadModule(moduleDir string, patterns ...string) (*ModuleSet, error) {
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,SFiles,Standard,DepOnly,Incomplete"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}
	var modPkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if derr := dec.Decode(&p); derr == io.EOF {
			break
		} else if derr != nil {
			return nil, fmt.Errorf("go list output: %w", derr)
		}
		if p.Incomplete {
			return nil, fmt.Errorf("package %s did not build; fix compile errors before linting", p.ImportPath)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			q := p
			modPkgs = append(modPkgs, &q)
		}
	}
	sort.Slice(modPkgs, func(i, j int) bool { return modPkgs[i].ImportPath < modPkgs[j].ImportPath })

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	set := &ModuleSet{Directives: NewIndex()}
	for _, lp := range modPkgs {
		files, perr := parseDir(fset, lp.Dir, lp.GoFiles)
		if perr != nil {
			return nil, perr
		}
		pkg, cerr := typecheck(fset, lp.ImportPath, files, imp)
		if cerr != nil {
			return nil, fmt.Errorf("type-checking %s: %w", lp.ImportPath, cerr)
		}
		for _, name := range lp.SFiles {
			pkg.asmFiles = append(pkg.asmFiles, filepath.Join(lp.Dir, name))
		}
		CollectDirectives(set.Directives, pkg) // malformed ones are findings of the run
		set.All = append(set.All, pkg)
		if !lp.DepOnly {
			set.Targets = append(set.Targets, pkg)
		}
	}
	return set, nil
}

func parseDir(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func typecheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tp, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tp, Info: info}, nil
}
