package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptUnreached names the declarations under internal/ and cmd/ that no
// binary reaches but stay on purpose. Each entry is one or more
// space-separated names ("internal/netem.NewCorruption", or
// "dir.Type.Method" for a method) and the reason; the names become extra
// roots. An entry whose names a binary does reach fails the test, so the
// list cannot go stale.
var keptUnreached = []struct{ names, why string }{
	{"internal/netem.NewCorruption internal/netem.NewDuplication", `kept impairments: DESIGN.md "Corruption and duplication"`},
	{"internal/netem.PathNames", "prints paths in the netem, routing and topo tests"},
	{"internal/netem.Link.LossModel", "the faults tests check that a scenario removes its loss process"},
	{"internal/core.Sender.MemorizeLen", "read by the core tests and the integration debug traces"},
	{"internal/engineobs.Heartbeat.Beats", "the golden test proves an attached heartbeat emitted"},
	{"internal/sim.Scheduler.RingPoolLen", "lane-ring pool accounting, read by the sim and core tests"},
	{"internal/tcp.Flow.State", "lifecycle state, read by the psim and workload tests"},
}

// TestEverythingIsReachable is the dead-code gate: starting from every
// package main (cmd/*, examples/*, the benchmark harness), every
// declaration of internal/bench, every init function and keptUnreached,
// it marks what those declarations name, transitively, and fails on any
// function, method, type, variable or constant under internal/ or cmd/
// left unmarked. A method is live when its receiver type is live and its
// name appears as a selector in live code. The scan is syntactic (no type
// checking), so it errs towards calling things live: a local variable
// that shadows a package-level name keeps that name alive. A method only
// the standard library calls (String through fmt, say) is live only while
// some live code also names it.
func TestEverythingIsReachable(t *testing.T) {
	g := loadModule(t, ".")
	if len(keptUnreached) >= 15 {
		t.Errorf("keptUnreached has %d entries; keep it under 15", len(keptUnreached))
	}
	dead := g.unreached(nil)
	var kept []string
	for _, k := range keptUnreached {
		for _, name := range strings.Fields(k.names) {
			d, ok := g.byKey[name]
			switch {
			case !ok:
				t.Errorf("keptUnreached names %s, which is not declared", name)
			case !dead[d]:
				t.Errorf("keptUnreached names %s, which a binary reaches: drop the entry", name)
			}
			kept = append(kept, name)
		}
	}
	var report []string
	for d := range g.unreached(kept) {
		if strings.HasPrefix(d.key, "internal/") || strings.HasPrefix(d.key, "cmd/") {
			report = append(report, fmt.Sprintf("%s (%s)", d.key, g.fset.Position(d.pos)))
		}
	}
	sort.Strings(report)
	if len(report) > 0 {
		t.Errorf("%d declaration(s) no binary reaches; delete them, move them into a _test.go file "+
			"of their package, or add them to keptUnreached with a reason:\n\t%s",
			len(report), strings.Join(report, "\n\t"))
	}
}

// moduleGraph is every top-level declaration of the module's non-test
// files, plus what the liveness walk needs to resolve names.
type moduleGraph struct {
	fset    *token.FileSet
	pkgs    map[string]*pkgDecls // by module-relative directory
	byKey   map[string]*decl
	methods map[string][]*decl // by method name
	roots   []*decl
}

type pkgDecls struct {
	dir   string
	name  string
	top   map[string]*decl // package-level names (methods excluded)
	recvs map[string][]*decl
}

type decl struct {
	key   string
	pos   token.Pos
	pkg   *pkgDecls
	imps  map[string]string // the file's import names → directories
	nodes []ast.Node        // walked when the declaration becomes live
	recv  string            // receiver type name, for methods
	name  string
}

// loadModule parses every non-test Go file under root. Import paths map
// to directories by dropping the module name, which covers both the main
// module ("tcppr/...") and the nested benchmark module ("tcppr/benchmark").
func loadModule(t *testing.T, root string) *moduleGraph {
	t.Helper()
	g := &moduleGraph{fset: token.NewFileSet(), pkgs: map[string]*pkgDecls{},
		byKey: map[string]*decl{}, methods: map[string][]*decl{}}
	type parsed struct {
		dir  string
		file *ast.File
	}
	var files []parsed
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(g.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		files = append(files, parsed{filepath.ToSlash(dir), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range files {
		if g.pkgs[p.dir] == nil {
			g.pkgs[p.dir] = &pkgDecls{dir: p.dir, name: p.file.Name.Name,
				top: map[string]*decl{}, recvs: map[string][]*decl{}}
		}
	}
	for _, p := range files {
		pkg := g.pkgs[p.dir]
		imps := map[string]string{}
		for _, is := range p.file.Imports {
			path, _ := strconv.Unquote(is.Path.Value)
			dir, ok := strings.CutPrefix(path, "tcppr/")
			if !ok || g.pkgs[dir] == nil {
				continue
			}
			name := g.pkgs[dir].name
			if is.Name != nil {
				name = is.Name.Name
			}
			imps[name] = dir
		}
		root := pkg.name == "main" || pkg.dir == "internal/bench"
		add := func(d *decl) {
			d.pkg, d.imps = pkg, imps
			if d.name == "_" {
				return
			}
			if d.recv != "" {
				d.key = pkg.dir + "." + d.recv + "." + d.name
				pkg.recvs[d.recv] = append(pkg.recvs[d.recv], d)
				g.methods[d.name] = append(g.methods[d.name], d)
			} else if d.name == "init" {
				d.key = fmt.Sprintf("%s.init@%s", pkg.dir, g.fset.Position(d.pos))
			} else {
				d.key = pkg.dir + "." + d.name
				pkg.top[d.name] = d
			}
			g.byKey[d.key] = d
			if root || d.name == "init" {
				g.roots = append(g.roots, d)
			}
		}
		for _, fd := range p.file.Decls {
			switch fd := fd.(type) {
			case *ast.FuncDecl:
				d := &decl{pos: fd.Pos(), name: fd.Name.Name, nodes: []ast.Node{fd.Type}}
				if fd.Body != nil {
					d.nodes = append(d.nodes, fd.Body)
				}
				if fd.Recv != nil {
					d.recv = recvName(fd.Recv.List[0].Type)
					d.nodes = append(d.nodes, fd.Recv)
				}
				add(d)
			case *ast.GenDecl:
				var valued *ast.ValueSpec // an iota group's implicit specs repeat the last explicit one
				for _, s := range fd.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(&decl{pos: s.Pos(), name: s.Name.Name, nodes: []ast.Node{s}})
					case *ast.ValueSpec:
						if s.Values != nil || s.Type != nil {
							valued = s
						}
						for _, n := range s.Names {
							d := &decl{pos: n.Pos(), name: n.Name, nodes: []ast.Node{s}}
							if valued != nil && valued != s {
								d.nodes = append(d.nodes, valued)
							}
							add(d)
						}
					}
				}
			}
		}
	}
	return g
}

// recvName strips pointer and type-parameter syntax from a receiver type.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// unreached walks from the roots plus the named extra roots and returns
// the declarations never marked.
func (g *moduleGraph) unreached(extra []string) map[*decl]bool {
	live := map[*decl]bool{}
	selectors := map[string]bool{}
	var queue []*decl
	mark := func(d *decl) {
		if d != nil && !live[d] {
			live[d] = true
			queue = append(queue, d)
		}
	}
	selector := func(name string) {
		if selectors[name] {
			return
		}
		selectors[name] = true
		for _, m := range g.methods[name] {
			if live[m.pkg.top[m.recv]] {
				mark(m)
			}
		}
	}
	for _, d := range g.roots {
		mark(d)
	}
	for _, name := range extra {
		mark(g.byKey[name])
	}
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if d.recv == "" && d.pkg.top[d.name] == d {
			for _, m := range d.pkg.recvs[d.name] {
				if selectors[m.name] {
					mark(m)
				}
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := d.imps[x.Name]; ok {
						mark(g.pkgs[dir].top[n.Sel.Name])
						return false
					}
				}
				selector(n.Sel.Name)
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				mark(d.pkg.top[n.Name])
			}
			return true
		}
		for _, n := range d.nodes {
			ast.Inspect(n, visit)
		}
	}
	dead := map[*decl]bool{}
	for _, d := range g.byKey {
		if !live[d] {
			dead[d] = true
		}
	}
	return dead
}
