package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingCode keeps the prose honest: every internal/, cmd/,
// bench/ or examples/ path and every Test*/Benchmark*/Example* name that
// README, DESIGN, MAPPING and EXPERIMENTS cite must exist in the tree.  A
// name with a trailing * cites a prefix; a path may end in a Go identifier
// (internal/chaos.Run).
func TestDocsCiteExistingCode(t *testing.T) {
	var names []string
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Example)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := func(cite string) bool {
		prefix, isPrefix := strings.CutSuffix(cite, "*")
		for _, name := range names {
			if name == cite || (isPrefix && strings.HasPrefix(name, prefix)) {
				return true
			}
		}
		return false
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
	for _, doc := range []string{"README.md", "DESIGN.md", "MAPPING.md", "EXPERIMENTS.md"} {
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
			if !declared(name) {
				t.Errorf("%s cites %s, which no test file declares", doc, name)
			}
		}
	}
}
