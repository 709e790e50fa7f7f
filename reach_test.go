package heracles_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The rule a non-test declaration must satisfy to stay in this module
// (ROADMAP aim 2): a command or example reaches it, or a test uses it as
// its reference and the reason is written down here. An entry is
// "import path.Name" or "import path.Type.Method" and keeps what it
// reaches in turn (DES.Epoch keeps the heap and the quantiles it uses). An
// entry that a command reaches after all, or that names nothing, fails
// the test the way an unreached declaration does.
var keptForTests = map[string]string{
	"heracles/internal/lat.NewDES":    "the discrete-event queue lat.Analytic is checked against (FIDELITY row 9)",
	"heracles/internal/lat.DES.Epoch": "as NewDES: no command calls it, so only the table can reach it",

	"heracles/internal/hw.Config.CorePowerWatts":       "the definitional per-core power the frequency solver's memoised sum must equal bit for bit",
	"heracles/internal/hw.Config.ResolveFrequencies":   "allocating form the scratch variant ResolveFrequenciesInto is compared against",
	"heracles/internal/cache.Solver.Resolve":           "allocating form the scratch variant ResolveScratch is compared against",
	"heracles/internal/mem.Resolve":                    "allocating form the scratch variant ResolveInto is compared against",
	"heracles/internal/netlink.Resolve":                "allocating form the scratch variant ResolveInto is compared against",
	"heracles/internal/engine.Checkpoint.EncodeBinary": "allocating form AppendBinary is compared against, and what the codec drift guards encode with",

	"heracles/internal/experiment.Fig3Surface.ConvexViolations": "FIDELITY row 7 (Fig. 3 convexity)",
	"heracles/internal/experiment.Fig1Table.Row":                "FIDELITY row 6 (Fig. 7 network cliff)",

	"heracles/internal/serve.Instance.changed":     "test synchronisation hook: wait for a status change without polling",
	"heracles/internal/serve.schedDriver.tickWait": "test synchronisation hook: wait for the job scheduler's next tick",
}

// stdMethods are the method names the standard library calls through its
// own interfaces (sort, heap, fmt, errors, json, http, io): a reached
// type's method of that name runs without the module ever selecting it.
var stdMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "Write": true,
}

// TestEveryDeclarationIsReached type-checks the module's non-test source
// and walks it from every main and init. A function, type, variable or
// constant is reached when a reached declaration names it. A method is
// reached when its receiver type is and a reached declaration calls it,
// calls a method of its name through an interface (which may land on any
// implementation), or its name is one of stdMethods. The walk
// over-approximates what runs, so what it reports no executable can use.
//
// The facade (package heracles) has no command of its own; its users are
// the examples and this package's tests. A facade name is reached when
// one of those names it, or when it is the alias a caller needs to spell
// the parameter or result type of a reached facade function.
func TestEveryDeclarationIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	m := loadModule(t)
	m.walk()

	if len(keptForTests) > 20 {
		t.Errorf("keptForTests has %d entries; it holds references for tests, at most 20", len(keptForTests))
	}
	byName := map[string]*decl{}
	for _, d := range m.decls {
		byName[m.name(d.obj)] = d
	}
	for name, reason := range keptForTests {
		switch d := byName[name]; {
		case d == nil:
			t.Errorf("keptForTests[%q] is stale: no such declaration", name)
		case m.reached[d.obj]:
			t.Errorf("keptForTests[%q] is stale: reached without it", name)
		case reason == "":
			t.Errorf("keptForTests[%q] gives no reason", name)
		default:
			m.reach(d.obj)
		}
	}
	m.walk()

	var unreached []string
	lines := 0
	for _, d := range m.decls {
		if !m.reached[d.obj] {
			pos := m.fset.Position(d.obj.Pos())
			rel, _ := filepath.Rel(m.root, pos.Filename)
			unreached = append(unreached, fmt.Sprintf("%s:%d %s", rel, pos.Line, m.name(d.obj)))
			lines += d.lines
		}
	}
	if len(unreached) > 0 {
		sort.Strings(unreached)
		t.Errorf("%d declarations (%d lines) are reached by no command, example or keptForTests entry:\n%s",
			len(unreached), lines, strings.Join(unreached, "\n"))
	}
}

// decl is one top-level declaration: a function, a method, or one name
// of a type, var or const declaration.
type decl struct {
	obj   types.Object
	node  ast.Node // what to walk when obj is reached
	lines int
}

type module struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package // by import path; nil while loading
	info *types.Info

	decls   []*decl
	byObj   map[types.Object]*decl
	methods map[*types.TypeName][]*decl
	aliases map[types.Type]types.Object // facade alias by the type it names

	reached  map[types.Object]bool
	selected map[string]bool // method names called through an interface
	work     []ast.Node
}

const modulePath = "heracles"

func loadModule(t *testing.T) *module {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	// The source importer would run cgo for net and os/user; the pure-Go
	// files type-check the same API.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })

	m := &module{
		root: root,
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
		byObj:    map[types.Object]*decl{},
		methods:  map[*types.TypeName][]*decl{},
		aliases:  map[types.Type]types.Object{},
		reached:  map[types.Object]bool{},
		selected: map[string]bool{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name[0] == '.' || name == "testdata") {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
			rel, _ := filepath.Rel(root, path)
			_, err = m.Import(filepath.ToSlash(filepath.Join(modulePath, rel)))
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The facade's own tests are its users: walk them for the facade
	// names they spell, and nothing else.
	bp, err := build.ImportDir(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	tests, err := m.parse(root, bp.XTestGoFiles)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&types.Config{Importer: m}).Check(modulePath+"_test", m.fset, tests, m.info); err != nil {
		t.Fatal(err)
	}
	for _, f := range tests {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := m.info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == modulePath {
					m.reach(obj)
				}
			}
			return true
		})
	}
	return m
}

func (m *module) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer: module packages are parsed and
// checked from this checkout without their tests, everything else comes
// from the standard library's source.
func (m *module) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return m.std.Import(path)
	}
	if pkg, ok := m.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	m.pkgs[path] = nil
	dir := filepath.Join(m.root, strings.TrimPrefix(path, modulePath))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := m.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	for _, f := range files {
		m.collect(f)
	}
	return pkg, nil
}

// collect records the file's top-level declarations and roots its main,
// its inits and its blank variables' initialisers.
func (m *module) collect(f *ast.File) {
	span := func(n ast.Node, doc *ast.CommentGroup) int {
		from := n.Pos()
		if doc != nil {
			from = doc.Pos()
		}
		return m.fset.Position(n.End()).Line - m.fset.Position(from).Line + 1
	}
	add := func(id *ast.Ident, node ast.Node, lines int) *decl {
		d := &decl{obj: m.info.Defs[id], node: node, lines: lines}
		m.decls = append(m.decls, d)
		m.byObj[d.obj] = d
		return d
	}
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			d := add(gd.Name, gd, span(gd, gd.Doc))
			if recv := receiver(d.obj); recv != nil {
				tn := receiverName(recv.Type())
				m.methods[tn] = append(m.methods[tn], d)
			} else if name := gd.Name.Name; name == "init" || name == "main" && d.obj.Pkg().Name() == "main" {
				m.reach(d.obj)
			}
		case *ast.GenDecl:
			for _, spec := range gd.Specs {
				doc := gd.Doc
				if gd.Lparen.IsValid() {
					doc = nil // the group's comment belongs to no one spec
				}
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Doc != nil {
						doc = spec.Doc
					}
					d := add(spec.Name, spec, span(spec, doc))
					if spec.Assign.IsValid() && d.obj.Pkg().Path() == modulePath {
						m.aliases[types.Unalias(d.obj.Type())] = d.obj
					}
				case *ast.ValueSpec:
					if spec.Doc != nil {
						doc = spec.Doc
					}
					lines := span(spec, doc)
					for _, id := range spec.Names {
						if id.Name == "_" {
							m.work = append(m.work, spec)
							continue
						}
						add(id, spec, lines)
						lines = 0 // a spec's lines count once
					}
				}
			}
		}
	}
}

// receiver returns the receiver of a method, nil for anything else.
func receiver(obj types.Object) *types.Var {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Type().(*types.Signature).Recv()
	}
	return nil
}

func receiverName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

func (m *module) name(obj types.Object) string {
	if recv := receiver(obj); recv != nil {
		return obj.Pkg().Path() + "." + receiverName(recv.Type()).Name() + "." + obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func (m *module) reach(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	d := m.byObj[obj]
	if d == nil || m.reached[obj] {
		return
	}
	m.reached[obj] = true
	m.work = append(m.work, d.node)
	if sig, ok := obj.Type().(*types.Signature); ok && obj.Pkg().Path() == modulePath {
		m.reachAliases(sig)
	}
}

// reachAliases reaches the facade alias of every named type a facade
// function's signature mentions.
func (m *module) reachAliases(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if alias := m.aliases[t]; alias != nil {
			m.reach(alias)
		}
	case *types.Signature:
		for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
			for i := range tuple.Len() {
				m.reachAliases(tuple.At(i).Type())
			}
		}
	case interface{ Elem() types.Type }: // pointer, slice, array, map, chan
		m.reachAliases(t.Elem())
	}
}

func (m *module) walk() {
	for {
		for len(m.work) > 0 {
			node := m.work[len(m.work)-1]
			m.work = m.work[:len(m.work)-1]
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					obj := m.info.Uses[id]
					if recv := receiver(obj); recv != nil && types.IsInterface(recv.Type()) {
						m.selected[obj.Name()] = true
					} else if obj != nil {
						m.reach(obj)
					}
				}
				return true
			})
		}
		for tn, methods := range m.methods {
			if !m.reached[tn] {
				continue
			}
			for _, d := range methods {
				if name := d.obj.Name(); m.selected[name] || stdMethods[name] {
					m.reach(d.obj)
				}
			}
		}
		if len(m.work) == 0 {
			return
		}
	}
}
