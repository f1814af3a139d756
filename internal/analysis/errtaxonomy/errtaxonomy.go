// Package errtaxonomy enforces the error-taxonomy contract of
// DESIGN.md §9 at the public boundary: exported entry points return
// errors that wrap the taxonomy sentinels (errs.ErrBadSpec,
// errs.ErrUnknownWorkload, errs.ErrCancelled) rather than fresh
// anonymous errors, they do not panic (panics at the boundary predate
// the taxonomy and survive only on the frozen deprecated-wrapper
// allowlist), and — module-wide — fmt.Errorf never flattens an error
// argument with %v/%s where %w would preserve the chain for errors.Is.
package errtaxonomy

import (
	"go/ast"
	"go/constant"
	"go/types"
	"path"
	"strings"

	"impress/internal/analysis"
)

// Config parameterizes the analyzer.
type Config struct {
	// Boundary are the public-API package import paths where the
	// no-panic and no-untyped-error rules apply.
	Boundary []string
	// TaxonomyPkg is the import path of the sentinel package errors
	// must wrap (named in diagnostics).
	TaxonomyPkg string
}

// New returns the errtaxonomy analyzer.
func New(cfg Config) *analysis.Analyzer {
	boundary := make(map[string]bool, len(cfg.Boundary))
	for _, p := range cfg.Boundary {
		boundary[p] = true
	}
	return &analysis.Analyzer{
		Name: "errtaxonomy",
		Doc: "requires public-boundary errors to wrap the error taxonomy (no fresh anonymous errors, no panics) " +
			"and %w wrapping wherever fmt.Errorf receives an error",
		Run: func(pass *analysis.Pass) error {
			c := &checker{pass: pass, cfg: cfg, inBoundary: boundary[pass.Pkg.PkgPath]}
			for _, file := range pass.Pkg.Syntax {
				c.file(file)
			}
			return nil
		},
	}
}

type checker struct {
	pass       *analysis.Pass
	cfg        Config
	inBoundary bool
}

func (c *checker) file(file *ast.File) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		atBoundary := c.inBoundary && fn.Name.IsExported()
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			c.call(fn, call, atBoundary)
			return true
		})
	}
}

func (c *checker) call(fn *ast.FuncDecl, call *ast.CallExpr, atBoundary bool) {
	info := c.pass.Pkg.TypesInfo
	if atBoundary {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				c.pass.Reportf(call.Pos(),
					"naked panic in public entry point %s: the public boundary reports failures as errors "+
						"wrapping the %s taxonomy, never as panics", fn.Name.Name, path.Base(c.cfg.TaxonomyPkg))
			}
		}
	}
	callee := calleeFunc(info, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	pkg, name := callee.Pkg().Path(), callee.Name()
	switch {
	case pkg == "fmt" && name == "Errorf":
		c.errorf(fn, call, atBoundary)
	case pkg == "errors" && name == "New" && atBoundary && returnsError(fn, info):
		c.pass.Reportf(call.Pos(),
			"errors.New in public entry point %s creates an untyped error: wrap a %s sentinel with fmt.Errorf "+
				"and %%w so callers can classify the failure with errors.Is",
			fn.Name.Name, path.Base(c.cfg.TaxonomyPkg))
	}
}

// errorf checks one fmt.Errorf call: error-typed arguments must be
// wrapped with %w (module-wide), and at the public boundary the call
// must wrap something at all.
func (c *checker) errorf(fn *ast.FuncDecl, call *ast.CallExpr, atBoundary bool) {
	info := c.pass.Pkg.TypesInfo
	if len(call.Args) == 0 {
		return
	}
	format, ok := stringLiteral(info, call.Args[0])
	if !ok {
		return
	}
	verbs := formatVerbs(format)
	wraps := false
	for i, v := range verbs {
		if v == 'w' {
			wraps = true
			continue
		}
		argIdx := 1 + i
		if argIdx >= len(call.Args) {
			break // malformed format; go vet printf reports it
		}
		t := info.TypeOf(call.Args[argIdx])
		if t != nil && implementsError(t) && v != 'T' && v != 'p' {
			c.pass.Reportf(call.Args[argIdx].Pos(),
				"fmt.Errorf formats an error with %%%c, flattening its chain: use %%w so errors.Is still "+
					"sees the %s taxonomy through the wrap", v, path.Base(c.cfg.TaxonomyPkg))
		}
	}
	if atBoundary && !wraps && returnsError(fn, info) {
		c.pass.Reportf(call.Pos(),
			"fmt.Errorf in public entry point %s creates an untyped error (no %%w): wrap a %s sentinel "+
				"so callers can classify the failure with errors.Is",
			fn.Name.Name, path.Base(c.cfg.TaxonomyPkg))
	}
}

// formatVerbs returns the verb letters of format in argument order,
// skipping %% and ignoring flags, width, precision and argument
// indexes.
func formatVerbs(format string) []rune {
	var verbs []rune
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// Skip flags, width, precision, argument index.
		for i < len(format) && strings.ContainsRune("+-# 0123456789.[]*", rune(format[i])) {
			i++
		}
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		verbs = append(verbs, rune(format[i]))
	}
	return verbs
}

func stringLiteral(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func implementsError(t types.Type) bool {
	errIface, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, errIface)
}

// returnsError reports whether fn has an error-typed result.
func returnsError(fn *ast.FuncDecl, info *types.Info) bool {
	if fn.Type.Results == nil {
		return false
	}
	for _, r := range fn.Type.Results.List {
		if t := info.TypeOf(r.Type); t != nil && implementsError(t) {
			return true
		}
	}
	return false
}

// calleeFunc resolves the called function, if it is a static call.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}
