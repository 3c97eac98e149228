package repro

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsCiteExistingCode keeps the prose honest: every internal/, cmd/,
// bench/ or examples/ path, every Test*/Benchmark*/Example* name and every
// backticked <pkg>.<Ident> of an internal/ package that README, DESIGN,
// MAPPING, EXPERIMENTS and the verify skill cite must exist in the tree.
// A name with a trailing * cites a prefix; a path may end in a Go
// identifier (internal/chaos.Run).
func TestDocsCiteExistingCode(t *testing.T) {
	var tests []string
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Example)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			tests = append(tests, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	names := namesOf(tests)
	decls, err := internalDecls()
	if err != nil {
		t.Fatal(err)
	}
	exists := func(path string) bool {
		for {
			if _, err := os.Stat(path); err == nil {
				return true
			}
			dot := strings.LastIndexByte(path, '.')
			if dot <= strings.LastIndexByte(path, '/') {
				return false
			}
			path = path[:dot]
		}
	}
	pathRE := regexp.MustCompile(`\b(?:internal|cmd|bench|examples)/[\w./-]*\w`)
	nameRE := regexp.MustCompile(`\b(?:Test|Benchmark|Example)[A-Z]\w*\*?`)
	for _, doc := range []string{"README.md", "DESIGN.md", "MAPPING.md", "EXPERIMENTS.md",
		".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pathRE.FindAllString(string(text), -1) {
			if !exists(p) {
				t.Errorf("%s cites %s, which does not exist", doc, p)
			}
		}
		for _, name := range nameRE.FindAllString(string(text), -1) {
			if !names(name) {
				t.Errorf("%s cites %s, which no test file declares", doc, name)
			}
		}
		for _, err := range checkPkgCites(string(text), decls) {
			t.Errorf("%s %v", doc, err)
		}
	}
}

// TestDocsCiteCheckRejectsDeletedNames is the negative control of the
// package citations TestDocsCiteExistingCode resolves: a backticked name
// that its package does not declare is reported, a declared one, a method
// path or a prefix of declared names is not.
func TestDocsCiteCheckRejectsDeletedNames(t *testing.T) {
	decls, err := internalDecls()
	if err != nil {
		t.Fatal(err)
	}
	for _, md := range []string{
		"run harnesses: `chaos.Run`, `transform.RunAll`", "`ioa.LocSetOf(l)`", "see `x := chaos.NoSuch*`",
	} {
		if errs := checkPkgCites(md, decls); len(errs) != 1 {
			t.Errorf("%q: %d errors %v, want 1", md, len(errs), errs)
		}
	}
	if errs := checkPkgCites("`chaos.Run.Build`, `chaos.Execute*`, `b.Sys.SetTraceMode(ioa.TraceOff)`, `-trace.out`", decls); len(errs) != 0 {
		t.Errorf("declared names reported: %v", errs)
	}
}

// pkgCiteRE matches a citation of an exported name of a package inside a
// backticked span of Markdown: the package and the name, a trailing *
// citing a prefix.
var pkgCiteRE = regexp.MustCompile(`(?:^|[^\w./-])([a-z]+)\.([A-Z]\w*\*?)`)

// checkPkgCites returns one error per backticked <pkg>.<Ident> in the
// Markdown text md, pkg an internal/ package, that decls does not list.
func checkPkgCites(md string, decls map[string]nameSet) []error {
	var errs []error
	for _, span := range regexp.MustCompile("`[^`\n]+`").FindAllString(md, -1) {
		for _, m := range pkgCiteRE.FindAllStringSubmatch(span, -1) {
			if declared, ok := decls[m[1]]; ok && !declared(m[2]) {
				errs = append(errs, fmt.Errorf("cites %s.%s, which internal/%s does not declare", m[1], m[2], m[1]))
			}
		}
	}
	return errs
}

// nameSet reports whether a cited name is among a set of declared ones, a
// cite with a trailing * naming any with that prefix.
type nameSet func(cite string) bool

func namesOf(names []string) nameSet {
	return func(cite string) bool {
		prefix, isPrefix := strings.CutSuffix(cite, "*")
		return slices.ContainsFunc(names, func(name string) bool {
			return name == cite || (isPrefix && strings.HasPrefix(name, prefix))
		})
	}
}

// internalDecls maps each internal/ package to the top-level functions,
// types, variables and constants its files, tests included, declare.
func internalDecls() (map[string]nameSet, error) {
	paths, err := filepath.Glob("internal/*/*.go")
	if err != nil {
		return nil, err
	}
	byPkg := make(map[string][]string)
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg := filepath.Base(filepath.Dir(path))
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					byPkg[pkg] = append(byPkg[pkg], d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						byPkg[pkg] = append(byPkg[pkg], s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							byPkg[pkg] = append(byPkg[pkg], n.Name)
						}
					}
				}
			}
		}
	}
	decls := make(map[string]nameSet, len(byPkg))
	for pkg, names := range byPkg {
		decls[pkg] = namesOf(names)
	}
	return decls, nil
}

// TestExperimentsAreCheckedOutput keeps EXPERIMENTS.md's tables equal to
// the code: each is a fenced block right under a marker naming the Example
// that prints it,
//
//	<!-- output: internal/consensus ExampleRun_cost -->
//
// and must equal that Example's // Output: block, which go test checks.
func TestExperimentsAreCheckedOutput(t *testing.T) {
	text, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range checkExperiments(string(text), exampleOutput) {
		t.Error(err)
	}
}

// TestExperimentsCheckRejectsEdits is the negative control of
// TestExperimentsAreCheckedOutput: one changed cell, a Markdown table
// without a marker and a fenced block without one must each be reported.
func TestExperimentsCheckRejectsEdits(t *testing.T) {
	text, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(text), "\n")
	edited := false
	for i := 0; i < len(lines) && !edited; i++ {
		if !markerRE.MatchString(lines[i]) {
			continue
		}
		// Bump the first digit of the first marked block's first row
		// that has one.
		for j := i + 2; j < len(lines) && lines[j] != "```"; j++ {
			if k := strings.IndexAny(lines[j], "0123456789"); k >= 0 {
				lines[j] = lines[j][:k] + string('0'+(lines[j][k]-'0'+1)%10) + lines[j][k+1:]
				edited = true
				break
			}
		}
	}
	if !edited {
		t.Fatal("no marked block has a digit to edit")
	}
	for name, md := range map[string]string{
		"one edited cell":           strings.Join(lines, "\n"),
		"a table without a marker":  string(text) + "\n| n | events |\n|---|---|\n| 4 | 100 |\n",
		"a block without a marker":  string(text) + "\n```\nn events\n4 100\n```\n",
		"a marker naming no output": string(text) + "\n<!-- output: internal/consensus ExampleNoSuch -->\n```\n```\n",
	} {
		if errs := checkExperiments(md, exampleOutput); len(errs) == 0 {
			t.Errorf("EXPERIMENTS.md with %s passed the check", name)
		}
	}
}

// markerRE matches the line naming the producer of the fenced block below
// it: a package directory and an Example function in its test files.
var markerRE = regexp.MustCompile(`^<!-- output: (\S+) (Example\w*) -->$`)

// checkExperiments returns one error per fenced block of the Markdown
// text md that differs from the output its marker names, per fenced block
// or Markdown table without a marker, and per marker with no fenced block
// under it.
func checkExperiments(md string, output func(dir, name string) (string, error)) []error {
	var errs []error
	lines := strings.Split(md, "\n")
	for i := 0; i < len(lines); i++ {
		m := markerRE.FindStringSubmatch(lines[i])
		switch {
		case m != nil:
			if i+1 == len(lines) || !strings.HasPrefix(lines[i+1], "```") {
				errs = append(errs, fmt.Errorf("EXPERIMENTS.md:%d: marker without a fenced block under it", i+1))
				continue
			}
			end := i + 2
			for end < len(lines) && lines[end] != "```" {
				end++
			}
			got := strings.TrimSpace(strings.Join(lines[i+2:end], "\n"))
			want, err := output(m[1], m[2])
			if err != nil {
				errs = append(errs, fmt.Errorf("EXPERIMENTS.md:%d: %v", i+1, err))
			} else if got != want {
				errs = append(errs, fmt.Errorf("EXPERIMENTS.md:%d: block differs from the output of %s %s\n%s",
					i+1, m[1], m[2], firstDiff(got, want)))
			}
			i = end
		case strings.HasPrefix(lines[i], "```"):
			errs = append(errs, fmt.Errorf("EXPERIMENTS.md:%d: fenced block without an output marker", i+1))
			for i++; i < len(lines) && lines[i] != "```"; i++ {
			}
		case strings.HasPrefix(lines[i], "|"):
			errs = append(errs, fmt.Errorf("EXPERIMENTS.md:%d: table without an output marker", i+1))
			for i+1 < len(lines) && strings.HasPrefix(lines[i+1], "|") {
				i++
			}
		}
	}
	return errs
}

// firstDiff renders the first line where a doc block and an output
// differ.
func firstDiff(block, out string) string {
	d, o := strings.Split(block, "\n"), strings.Split(out, "\n")
	i := 0
	for i < len(d) && i < len(o) && d[i] == o[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return fmt.Sprintf("%q", lines[i])
		}
		return "(end)"
	}
	return fmt.Sprintf("line %d\n  doc:    %s\n  output: %s", i+1, line(d), line(o))
}

// exampleOutput returns the // Output: block of the Example called name
// among the test files of the package in dir, trimmed as go test trims
// it.  An Example without output, or with unordered output, has none to
// show.
func exampleOutput(dir, name string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return "", err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return "", err
		}
		files = append(files, f)
	}
	for _, ex := range doc.Examples(files...) {
		if "Example"+ex.Name != name {
			continue
		}
		out := strings.TrimSpace(ex.Output)
		if out == "" || ex.Unordered {
			return "", fmt.Errorf("%s %s has no ordered output to show", dir, name)
		}
		return out, nil
	}
	return "", fmt.Errorf("%s declares no %s", dir, name)
}
