package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// mapRangeAllow names every range over a map in non-test internal/ code
// that may visit its entries in Go's randomized map order, keyed like
// mapRanges' sites, with why that order cannot reach a result.  A loop
// whose order could reach a verdict, an artifact or a printed table
// iterates in a fixed order instead.
var mapRangeAllow = map[string]string{
	"internal/afd/qos.go SuspicionTracker.Stats: range t.fams":            "names sorted below",
	"internal/afd/qos.go SuspicionTracker.familyStats: range fam.lastAdd": "detections sorted below; spans are a min and a max",
	"internal/afd/qos.go SuspicionTracker.familyStats: range fam.open":    "mistakes sorted below",
	"internal/afd/qos.go SuspicionTracker.familyStats: range span":        "max over values",
	"internal/afd/quorum.go Sigma.Check: range distinct":                  "keys sorted below",
	"internal/afd/quorum.go maxDisjointFamily: range quorums":             "keys sorted below",
	"internal/afd/registry.go Families: range m":                          "names sorted below",
	"internal/causal/explain.go DAG.Explain: range parentEdge":            "min over keys",
	"internal/causal/qos.go Summarize: range byFam":                       "families sorted below",
	"internal/consensus/smachine.go SMachine.finish: range inter":         "set intersection",
	"internal/consensus/smachine.go SMachine.finish: range inter #2":      "min over keys",
	"internal/ioa/action.go EncodeLocSet: range set":                      "locations sorted below",
	"internal/ioa/footprint.go System.ReceiveAcceptors: range s.routes":   "each location's list sorted below",
	"internal/ioa/footprint.go System.Sites: range s.routes":              "each field is set once; any conflict returns false",
	"internal/ioa/locset.go LocSet.AppendMembers: range s.spill":          "members sorted below",
	"internal/ioa/locset.go ParseLocSet: range m":                         "bitmask union",
	"internal/ioa/locset.go spillWhere: range src":                        "set build",
	"internal/live/live.go Runtime.inFlightLocked: range r.pending":       "sum",
	"internal/live/transport.go partitionGate.Partition: range g.held":    "a heal releases every held signal at once; live order is timing, not seed",
	"internal/problems/bounded.go QuiescentCut: range pending":            "channels sorted below",
	"internal/problems/kset.go KSetMachine.maybeDecide: range m.vals":     "min over values",
	"internal/problems/urb.go urbMachine.sortedIDs: range m.echoes":       "IDs sorted below",
	"internal/selfimpl/selfimpl.go VerifyProof: range rev":                "set build",
	"internal/system/process.go Proc.SignatureKeys: range p.envIn":        "routing indexes keys by value; their order is not observed",
	"internal/system/process.go Proc.SignatureKeys: range p.fdNames":      "routing indexes keys by value; their order is not observed",
	"internal/trace/json.go package-level: range kindNames":               "inverse map build",
}

// TestMapRangesOrderedOrAllowed lists every range over a map in non-test
// internal/ code: each must be named in mapRangeAllow with its reason, and
// every allowlist entry must still name a loop.  Seeded runs record
// verdicts and artifacts, so map order must not reach them.
func TestMapRangesOrderedOrAllowed(t *testing.T) {
	sites, err := mapRanges(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range checkMapRanges(sites, mapRangeAllow) {
		t.Error(err)
	}
}

// TestMapRangeLintFlagsUnlisted is the lint's negative control: a synthetic
// package with one map loop fails against an allowlist that does not name
// it, and the allowlist's one entry is reported stale.
func TestMapRangeLintFlagsUnlisted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "internal", "leak")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package leak

// Keys returns m's keys in map order.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	if err := os.WriteFile(filepath.Join(dir, "leak.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	sites, err := mapRanges(filepath.Dir(filepath.Dir(dir)), "synthetic")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/leak/leak.go Keys: range m"}; !slices.Equal(sites, want) {
		t.Fatalf("sites = %q, want %q", sites, want)
	}
	errs := checkMapRanges(sites, map[string]string{"internal/leak/gone.go F: range m": "stale"})
	var got []string
	for _, err := range errs {
		got = append(got, err.Error())
	}
	want := []string{
		"internal/leak/leak.go Keys: range m: a range over a map; iterate in a fixed order or allowlist it with a reason",
		`stale allowlist entry "internal/leak/gone.go F: range m": no such map range`,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("errors = %q, want %q", got, want)
	}
}

// checkMapRanges reports each site allow does not name, then each entry of
// allow that names no site.
func checkMapRanges(sites []string, allow map[string]string) []error {
	var errs []error
	for _, s := range sites {
		if allow[s] == "" {
			errs = append(errs, fmt.Errorf("%s: a range over a map; iterate in a fixed order or allowlist it with a reason", s))
		}
	}
	var stale []string
	for k := range allow {
		if !slices.Contains(sites, k) {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		errs = append(errs, fmt.Errorf("stale allowlist entry %q: no such map range", k))
	}
	return errs
}

// mapRanges type-checks every non-test package under root/internal — each
// once, in import order, with the standard library from export data — and
// returns its ranges over maps, sorted, as "file func: range expr": the
// slash-separated file path relative to root, the enclosing function
// (Type.Method for methods), and the ranged expression, with " #k" on the
// k-th loop over the same expression in one function.  module is the
// import-path prefix of the packages under root.
func mapRanges(root, module string) ([]string, error) {
	type pkg struct {
		files   []*ast.File
		imports []string // module-local imports
		checked *types.Package
	}
	fset := token.NewFileSet()
	pkgs := map[string]*pkg{}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		ip := module + "/" + filepath.ToSlash(rel)
		p := pkgs[ip]
		if p == nil {
			p = &pkg{}
			pkgs[ip] = p
		}
		p.files = append(p.files, f)
		for _, spec := range f.Imports {
			if dep := strings.Trim(spec.Path.Value, `"`); strings.HasPrefix(dep, module+"/") {
				p.imports = append(p.imports, dep)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := importer.Default()
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := pkgs[path]; p != nil && p.checked != nil {
			return p.checked, nil
		}
		return std.Import(path)
	})
	var sites []string
	seen := map[string]int{} // site → loops so far; a repeat is keyed "site #k"
	var check func(path string) error
	check = func(path string) error {
		p := pkgs[path]
		if p == nil {
			return fmt.Errorf("%s: no such package under %s", path, root)
		}
		if p.checked != nil {
			return nil
		}
		for _, dep := range p.imports {
			if err := check(dep); err != nil {
				return err
			}
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: imp}
		checked, err := conf.Check(path, fset, p.files, info)
		if err != nil {
			return err
		}
		p.checked = checked
		for _, f := range p.files {
			file, err := filepath.Rel(root, fset.File(f.Pos()).Name())
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fn := "package-level"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn = funcName(fd)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
						site := fmt.Sprintf("%s %s: range %s", filepath.ToSlash(file), fn, types.ExprString(rs.X))
						if seen[site]++; seen[site] > 1 {
							site += fmt.Sprintf(" #%d", seen[site])
						}
						sites = append(sites, site)
					}
					return true
				})
			}
		}
		return nil
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := check(path); err != nil {
			return nil, err
		}
	}
	sort.Strings(sites)
	return sites, nil
}

// funcName names a function declaration: Name, or Type.Name for a method.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	return types.ExprString(t) + "." + fd.Name.Name
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
