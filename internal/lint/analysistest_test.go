package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest: fixture packages
// live under testdata/src/<import-path>, and expected diagnostics are
// `// want "regexp"` comments on the line they are reported at. One
// loader is shared across all tests so the standard library is
// type-checked once per test process.

var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader = &Loader{}
		loaderErr = loader.AddFixtureTree(filepath.Join("testdata", "src"))
	})
	if loaderErr != nil {
		t.Fatalf("loading fixture tree: %v", loaderErr)
	}
	return loader
}

// runFixture analyzes one fixture package with the given analyzers and
// checks its diagnostics against the package's want comments.
func runFixture(t *testing.T, analyzers []*Analyzer, path string) []Diagnostic {
	t.Helper()
	l := fixtureLoader(t)
	pkgs, err := l.LoadPaths(path)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}
	diags := AnalyzeWorkers(pkgs, analyzers, 0)
	checkWants(t, l.Fset(), pkgs[0], diags)
	return diags
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`// want (.*)$`)

func collectWants(t *testing.T, fset *token.FileSet, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range splitQuoted(t, pos, m[1]) {
					re, err := regexp.Compile(q)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, q, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted parses the sequence of quoted regexps after "// want".
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			t.Fatalf("%s: want expectations must be quoted strings, got %q", pos, s)
		}
		q, rest, err := cutQuoted(s)
		if err != nil {
			t.Fatalf("%s: %v in %q", pos, err, s)
		}
		out = append(out, q)
		s = strings.TrimSpace(rest)
	}
	return out
}

func cutQuoted(s string) (string, string, error) {
	quote := s[0]
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' && quote == '"' {
			i++
			continue
		}
		if s[i] == quote {
			q, err := strconv.Unquote(s[:i+1])
			return q, s[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string")
}

func checkWants(t *testing.T, fset *token.FileSet, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, pkg)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// AddFixtureTree registers every package directory under root (a
// GOPATH-style src tree: the path of a package is its directory
// relative to root) for subsequent Load calls.
func (l *Loader) AddFixtureTree(root string) error {
	if l.Fixtures == nil {
		l.Fixtures = make(map[string]string)
	}
	return filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.IsDir() {
			return err
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				l.Fixtures[filepath.ToSlash(rel)] = path
				break
			}
		}
		return nil
	})
}
