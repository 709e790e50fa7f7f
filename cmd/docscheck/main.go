// Command docscheck is the documentation gate run by `make docs-check`
// and the CI docs job. It fails (exit 1) when:
//
//   - an intra-repository markdown link points at a file that does not
//     exist,
//   - an internal/ package has no package comment (the architecture
//     story `go doc` tells), or
//   - a control-plane route registered in internal/serve or a
//     federation-router route registered in internal/fed is not
//     documented in docs/API.md,
//   - a Prometheus metric family the expositions can emit
//     (serve.MetricNames, fed.MetricNames) is not documented in
//     docs/API.md,
//   - or a Go source comment references a DESIGN.md section anchor
//     ("DESIGN.md §N") that does not exist as a "## §N" heading — the
//     architecture pointers in package comments must not rot as
//     DESIGN.md evolves.
//
// Usage:
//
//	docscheck [-root .]
package main

import (
	"flag"
	"fmt"
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

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck: "+p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: markdown links, package comments, API route/metric docs and DESIGN anchors all OK")
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

// checkRouteDocs requires docs/API.md to name every registered
// control-plane route as the literal "METHOD /path" string.
func checkRouteDocs(root string) []string {
	apiPath := filepath.Join(root, "docs", "API.md")
	data, err := os.ReadFile(apiPath)
	if err != nil {
		return []string{fmt.Sprintf("reading %s: %v", apiPath, err)}
	}
	text := string(data)
	var problems []string
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
