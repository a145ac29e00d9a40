package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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

// keptKnobs names the exported *Config fields under internal/ that no
// non-test code sets but stay on purpose. Each entry is one or more
// space-separated "dir.Type.Field" names and the reason. An entry whose
// field non-test code does set fails the test, so the list cannot go
// stale.
var keptKnobs = []struct{ names, why string }{
	{"internal/core.Config.MaxBurst", `TCP-PR-only pacing, DESIGN.md "Sender asymmetries"; the core tests turn it off to isolate the other rules`},
	{"internal/core.Config.InitialCwnd internal/core.Config.MaxCwnd",
		"the sender tests start from a larger window and check the receiver-window cap"},
	{"internal/topo.CityConfig.BackboneDelay internal/topo.CityConfig.BackboneSkew",
		"the topo and psim tests check that the lookahead follows the ring delays, on a symmetric and a skewed ring"},
	{"internal/experiments.RunConfig.Smoke", "the registry round trip and the bench smoke run every experiment's smoke cells"},
	{"internal/experiments.FaultMatrixConfig.Scenarios internal/experiments.ChurnMatrixConfig.Scenarios internal/experiments.ReorderMatrixConfig.Models",
		"the matrix tests run a test-sized subset of one axis"},
	{"internal/invariant/fuzzer.Config.Duration internal/invariant/fuzzer.Config.Factory",
		"the fuzzer's own tests shorten its runs and plant a broken sender to prove the oracle catches it"},
	{"internal/netem.RepairConfig.IdleTimeout", "the repair tests and the repair fuzz model shrink idle eviction to test time"},
	{"internal/workload.OnOffConfig.MaxTransfers", "a bounded source lets the drain test assert an empty event queue"},
}

// TestEveryKnobIsArgued is the field-level companion of the dead-code
// gate: every exported field of an exported struct type named *Config, in
// a non-test file under internal/, must be set by non-test code in the
// module or the benchmark harness, or sit on keptKnobs with a reason. A
// set is a composite-literal key, an assignment (or ++/--), or &x.F (a
// flag binding). An assignment inside an if whose condition reads the same
// field (if c.F == 0 { c.F = … }) is zero-value defaulting, not a caller.
// Like the dead-code gate the walk is syntactic and errs towards "set":
// an assignment, a flag binding, or a literal whose type the walk cannot
// name sets every *Config field of that name.
func TestEveryKnobIsArgued(t *testing.T) {
	g := loadModule(t, ".")
	knobs := g.configFields()
	set := g.setFields(knobs)
	if len(keptKnobs) >= 15 {
		t.Errorf("keptKnobs has %d entries; keep it under 15", len(keptKnobs))
	}
	kept := map[string]bool{}
	for _, k := range keptKnobs {
		for _, name := range strings.Fields(k.names) {
			switch _, ok := knobs[name]; {
			case !ok:
				t.Errorf("keptKnobs names %s, which is not an exported *Config field under internal/", name)
			case set[name]:
				t.Errorf("keptKnobs names %s, which non-test code sets: drop the entry", name)
			}
			kept[name] = true
		}
	}
	var report []string
	for name, pos := range knobs {
		if !set[name] && !kept[name] {
			report = append(report, fmt.Sprintf("%s (%s)", name, g.fset.Position(pos)))
		}
	}
	sort.Strings(report)
	if len(report) > 0 {
		t.Errorf("%d *Config field(s) no non-test code sets; delete them (a constant holds the default), "+
			"set them from a caller, or add them to keptKnobs with a reason:\n\t%s",
			len(report), strings.Join(report, "\n\t"))
	}
	t.Logf("%d exported *Config fields under internal/, %d of them on keptKnobs (%d entries)",
		len(knobs), len(kept), len(keptKnobs))
}

// configFields returns the exported fields of every exported struct type
// named *Config in a non-test file under internal/, keyed
// "dir.Type.Field", with their positions.
func (g *moduleGraph) configFields() map[string]token.Pos {
	knobs := map[string]token.Pos{}
	for _, f := range g.files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fl := range st.Fields.List {
					names := fl.Names
					if names == nil { // embedded: the field is named after its type
						names = []*ast.Ident{{NamePos: fl.Pos(), Name: recvName(fl.Type)}}
					}
					for _, n := range names {
						if n.IsExported() {
							knobs[f.dir+"."+ts.Name.Name+"."+n.Name] = n.Pos()
						}
					}
				}
			}
		}
	}
	return knobs
}

// setFields walks every non-test file of the module and returns the knobs
// some code sets, by the rules of TestEveryKnobIsArgued.
func (g *moduleGraph) setFields(knobs map[string]token.Pos) map[string]bool {
	byName := map[string][]string{}
	for k := range knobs {
		field := k[strings.LastIndex(k, ".")+1:]
		byName[field] = append(byName[field], k)
	}
	set := map[string]bool{}
	setAny := func(field string) {
		for _, k := range byName[field] {
			set[k] = true
		}
	}
	for _, f := range g.files {
		elided := map[*ast.CompositeLit]ast.Expr{} // element literals' types, from their parent
		var conds []ast.Expr                       // enclosing if conditions
		defaulting := func(lhs ast.Expr) bool {
			want := types.ExprString(lhs)
			for _, c := range conds {
				found := false
				ast.Inspect(c, func(n ast.Node) bool {
					if s, ok := n.(*ast.SelectorExpr); ok && types.ExprString(s) == want {
						found = true
					}
					return !found
				})
				if found {
					return true
				}
			}
			return false
		}
		assigned := func(lhs ast.Expr) {
			if s, ok := lhs.(*ast.SelectorExpr); ok && !defaulting(s) {
				setAny(s.Sel.Name)
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				if n.Init != nil {
					ast.Inspect(n.Init, visit)
				}
				ast.Inspect(n.Cond, visit)
				conds = append(conds, n.Cond)
				ast.Inspect(n.Body, visit)
				if n.Else != nil {
					ast.Inspect(n.Else, visit)
				}
				conds = conds[:len(conds)-1]
				return false
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					assigned(l)
				}
			case *ast.IncDecStmt:
				assigned(n.X)
			case *ast.UnaryExpr:
				if s, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					setAny(s.Sel.Name)
				}
			case *ast.CompositeLit:
				typ := n.Type
				if typ == nil {
					typ = elided[n]
				}
				// A named type resolves to "dir.Type"; a type from outside
				// the module, or a literal array, map or struct type, has
				// no knobs; a type the walk cannot name matches by field.
				var elem ast.Expr // the type an elided element literal inherits
				name, known := "", typ != nil
				switch t := typ.(type) {
				case *ast.Ident:
					name = f.dir + "." + t.Name
				case *ast.SelectorExpr:
					if x, ok := t.X.(*ast.Ident); ok && f.imps[x.Name] != "" {
						name = f.imps[x.Name] + "." + t.Sel.Name
					}
				case *ast.ArrayType:
					elem = t.Elt
				case *ast.MapType:
					elem = t.Value
				}
				if s, ok := elem.(*ast.StarExpr); ok {
					elem = s.X
				}
				for _, e := range n.Elts {
					kv, keyed := e.(*ast.KeyValueExpr)
					if keyed {
						e = kv.Value
						if key, ok := kv.Key.(*ast.Ident); ok && !known {
							setAny(key.Name)
						} else if ok && name != "" {
							set[name+"."+key.Name] = true
						}
					} else if name != "" { // positional: every field is set
						for k := range knobs {
							if strings.HasPrefix(k, name+".") {
								set[k] = true
							}
						}
					}
					if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
						e = u.X
					}
					if cl, ok := e.(*ast.CompositeLit); ok && cl.Type == nil {
						elided[cl] = elem
					}
				}
			}
			return true
		}
		ast.Inspect(f.file, visit)
	}
	return set
}

// moduleGraph is every top-level declaration of the module's non-test
// files, plus what the liveness walk needs to resolve names.
type moduleGraph struct {
	fset    *token.FileSet
	pkgs    map[string]*pkgDecls // by module-relative directory
	byKey   map[string]*decl
	methods map[string][]*decl // by method name
	roots   []*decl
	files   []srcFile
}

type srcFile struct {
	dir  string
	imps map[string]string
	file *ast.File
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
		g.files = append(g.files, srcFile{p.dir, imps, p.file})
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
