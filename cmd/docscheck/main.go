// Command docscheck is the documentation gate run by `make docs-check`
// and the CI docs job. It fails (exit 1) when:
//
//   - an intra-repository markdown link points at a file that does not
//     exist,
//   - an internal/ package has no package comment (the architecture
//     story `go doc` tells), or
//   - a control-plane route registered in internal/serve or a
//     federation-router route registered in internal/fed is not
//     documented in docs/API.md, or a "### METHOD /path" section of
//     docs/API.md documents a route neither registers,
//   - a Prometheus metric family the expositions can emit
//     (serve.MetricNames, fed.MetricNames) is not documented in
//     docs/API.md,
//   - a Go source comment references a DESIGN.md section anchor
//     ("DESIGN.md §N") that does not exist as a "## §N" heading — the
//     architecture pointers in package comments must not rot as
//     DESIGN.md evolves,
//   - DESIGN.md, README.md or docs/API.md names, in backticks, a
//     `pkg.Name` (or `pkg.Type.Member`) of one of the module's packages,
//     or a TestX, FuzzX or BenchmarkX function, that the module does not
//     declare,
//   - or a Go or markdown file cites a ROADMAP open item by number
//     ("ROADMAP item N"): items are renumbered as they land, so a
//     citation names the item's title.
//
// Usage:
//
//	docscheck [-root .]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"heracles/internal/fed"
	"heracles/internal/serve"
)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	var problems []string
	problems = append(problems, checkMarkdownLinks(*root)...)
	problems = append(problems, checkPackageComments(*root)...)
	problems = append(problems, checkRouteDocs(*root)...)
	problems = append(problems, checkMetricDocs(*root)...)
	problems = append(problems, checkDesignAnchors(*root)...)
	problems = append(problems, checkIdentifiers(*root)...)
	problems = append(problems, checkRoadmapCitations(*root)...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck: "+p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: markdown links, package comments, API route/metric docs, DESIGN anchors, named identifiers and ROADMAP citations all OK")
}

// linkRE matches [text](target) markdown links; targets with nested
// parentheses are out of scope.
var linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// checkMarkdownLinks verifies every relative link in every tracked
// markdown file resolves to an existing file or directory.
func checkMarkdownLinks(root string) []string {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range linkRE.FindAllStringSubmatch(string(data), -1) {
			target := strings.Trim(m[1], "<>")
			if target == "" ||
				strings.HasPrefix(target, "http://") ||
				strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems,
					fmt.Sprintf("%s: broken link %q (%s)", path, m[1], resolved))
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("walking %s: %v", root, err))
	}
	return problems
}

// checkPackageComments requires a package comment in every internal/
// package (any non-test file may carry it; by convention it lives in
// doc.go).
func checkPackageComments(root string) []string {
	var problems []string
	base := filepath.Join(root, "internal")
	entries, err := os.ReadDir(base)
	if err != nil {
		return []string{fmt.Sprintf("reading %s: %v", base, err)}
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(base, e.Name())
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			continue
		}
		found := false
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", f, err))
				continue
			}
			if af.Doc != nil && strings.TrimSpace(af.Doc.Text()) != "" {
				found = true
				break
			}
		}
		if !found {
			problems = append(problems,
				fmt.Sprintf("internal/%s: no package comment (add a doc.go)", e.Name()))
		}
	}
	return problems
}

// designHeadingRE matches the "## §N Title" section headings of DESIGN.md.
var designHeadingRE = regexp.MustCompile(`(?m)^## §(\d+)\b`)

// designChainRE consumes one "§N" link of a reference chain after a
// "DESIGN.md" token: separators (spaces, commas, "and", comment markers
// and newlines — doc comments wrap) followed by the section number.
// "DESIGN.md §9,\n// §11" therefore yields both 9 and 11, while prose
// like "the §5.3 experiment" — a paper reference, not a DESIGN anchor —
// is never reached because it has no preceding DESIGN.md token.
var designChainRE = regexp.MustCompile(`^(?:[ \t\r\n,]|//|and\b)*§(\d+)`)

// designRefs extracts every DESIGN.md section number referenced in text.
func designRefs(text string) []string {
	var out []string
	for {
		i := strings.Index(text, "DESIGN.md")
		if i < 0 {
			return out
		}
		text = text[i+len("DESIGN.md"):]
		for {
			m := designChainRE.FindStringSubmatch(text)
			if m == nil {
				break
			}
			out = append(out, m[1])
			text = text[len(m[0]):]
		}
	}
}

// checkDesignAnchors requires every DESIGN.md section reference in a Go
// source file to resolve to an existing "## §N" heading.
func checkDesignAnchors(root string) []string {
	var problems []string
	designPath := filepath.Join(root, "DESIGN.md")
	design, err := os.ReadFile(designPath)
	if err != nil {
		return []string{fmt.Sprintf("reading %s: %v", designPath, err)}
	}
	sections := map[string]bool{}
	for _, m := range designHeadingRE.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, sec := range designRefs(string(data)) {
			if !sections[sec] {
				problems = append(problems,
					fmt.Sprintf("%s: references DESIGN.md §%s, but DESIGN.md has no \"## §%s\" heading", path, sec, sec))
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("walking %s: %v", root, err))
	}
	return problems
}

// checkMetricDocs requires docs/API.md to name every Prometheus metric
// family the expositions can emit (serve.MetricNames and
// fed.MetricNames, each read off a rendering of the empty state).
func checkMetricDocs(root string) []string {
	apiPath := filepath.Join(root, "docs", "API.md")
	data, err := os.ReadFile(apiPath)
	if err != nil {
		return []string{fmt.Sprintf("reading %s: %v", apiPath, err)}
	}
	text := string(data)
	var problems []string
	for _, name := range append(serve.MetricNames(), fed.MetricNames()...) {
		if !strings.Contains(text, name) {
			problems = append(problems,
				fmt.Sprintf("docs/API.md: metric family %q is undocumented", name))
		}
	}
	return problems
}

// routeHeadingRE matches the "### METHOD /path" section headings of
// docs/API.md.
var routeHeadingRE = regexp.MustCompile(`(?m)^### ([A-Z]+ /\S*)\s*$`)

// checkRouteDocs requires docs/API.md to name every registered
// control-plane route as the literal "METHOD /path" string, and every
// "### METHOD /path" heading in it to be a route of serve.Routes or
// fed.Routes: a deleted route must take its section with it.
func checkRouteDocs(root string) []string {
	apiPath := filepath.Join(root, "docs", "API.md")
	data, err := os.ReadFile(apiPath)
	if err != nil {
		return []string{fmt.Sprintf("reading %s: %v", apiPath, err)}
	}
	text := string(data)
	var problems []string
	routes := map[string]bool{}
	for _, r := range append(serve.Routes(), fed.Routes()...) {
		routes[r] = true
	}
	for _, m := range routeHeadingRE.FindAllStringSubmatch(text, -1) {
		if !routes[m[1]] {
			problems = append(problems,
				fmt.Sprintf("docs/API.md: section %q documents no registered route", m[1]))
		}
	}
	for _, r := range serve.Routes() {
		if !strings.Contains(text, r) {
			problems = append(problems,
				fmt.Sprintf("docs/API.md: registered route %q is undocumented", r))
		}
	}
	for _, r := range fed.Routes() {
		if !strings.Contains(text, r) {
			problems = append(problems,
				fmt.Sprintf("docs/API.md: federation router route %q is undocumented", r))
		}
	}
	return problems
}

// declared is what the module's Go files declare: per package name, its
// top-level names and, per type, its methods and fields; and every
// Test, Fuzz and Benchmark function.
type declared struct {
	pkgs  map[string]map[string]bool // package name → "Name" and "Type.Member"
	tests map[string]bool
}

// declarations parses every Go file under root, test files included (a
// package's _test.go files declare its test-only seams).
func declarations(root string) (declared, error) {
	d := declared{pkgs: map[string]map[string]bool{}, tests: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); name == ".git" || name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		names := d.pkgs[pkg]
		if names == nil {
			names = map[string]bool{}
			d.pkgs[pkg] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv == nil {
					names[name] = true
					if testFuncRE.MatchString(name) {
						d.tests[name] = true
					}
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch r := recv.(type) {
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					names[id.Name+"."+name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, fn := range field.Names {
									names[spec.Name.Name+"."+fn.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							names[id.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	return d, err
}

var (
	testFuncRE = regexp.MustCompile(`^(Test|Fuzz|Benchmark)[A-Z0-9_]`)
	codeSpanRE = regexp.MustCompile("`([^`\n]+)`")
	// A test name, alone in its span or leading it (a subtest path or
	// flags may follow).
	spanTestRE = regexp.MustCompile(`^((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)`)
	// pkg.Name and pkg.Type.Member wherever they stand in a span.
	qualifiedRE = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
)

// checkIdentifiers requires every backticked reference to a module
// package's declaration, and every backticked test function, in
// DESIGN.md, README.md and docs/API.md to name something the module
// declares: a renamed or deleted identifier must take its mentions
// with it.
func checkIdentifiers(root string) []string {
	d, err := declarations(root)
	if err != nil {
		return []string{fmt.Sprintf("parsing the module: %v", err)}
	}
	var problems []string
	for _, doc := range []string{"DESIGN.md", "README.md", filepath.Join("docs", "API.md")} {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			problems = append(problems, fmt.Sprintf("reading %s: %v", doc, err))
			continue
		}
		for _, span := range codeSpanRE.FindAllStringSubmatch(string(data), -1) {
			if m := spanTestRE.FindStringSubmatch(span[1]); m != nil && !d.tests[m[1]] {
				problems = append(problems, fmt.Sprintf("%s: `%s` names no test function in the module", doc, m[1]))
			}
			for _, m := range qualifiedRE.FindAllStringSubmatch(span[1], -1) {
				names, ok := d.pkgs[m[1]]
				if !ok || m[1] == "main" {
					continue // not one of the module's packages
				}
				ref := m[2]
				if m[3] != "" {
					ref += "." + m[3]
				}
				if !names[ref] {
					problems = append(problems, fmt.Sprintf("%s: `%s.%s` is not declared in package %s", doc, m[1], ref, m[1]))
				}
			}
		}
	}
	return problems
}

// roadmapItemRE matches a numbered ROADMAP item citation, also when a
// comment wraps between "ROADMAP" and "item".
var roadmapItemRE = regexp.MustCompile(`ROADMAP(?:[ \t\r\n]|//)*items?[ \t]+\d`)

// checkRoadmapCitations flags "ROADMAP item N" in every Go and markdown
// file. Exempt: ROADMAP.md itself, CHANGES.md (history: an entry cites
// the numbering of its day) and cmd/heraclesbench/, which BENCHMARK.json
// freezes, so its citations cannot be edited.
func checkRoadmapCitations(root string) []string {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if d.Name() == ".git" || rel == "cmd/heraclesbench" {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".md" || rel == "ROADMAP.md" || rel == "CHANGES.md" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, loc := range roadmapItemRE.FindAllIndex(data, -1) {
			line := 1 + strings.Count(string(data[:loc[0]]), "\n")
			problems = append(problems, fmt.Sprintf("%s:%d: cites a ROADMAP item by number; cite its title", rel, line))
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("walking %s: %v", root, err))
	}
	return problems
}
