package exp

import (
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestEveryProtocolPackageIsRead holds ROADMAP item 12's rule over the
// protocol packages: every package under internal/cc but cc itself is
// imported by this package's non-test files, and the run of a registered
// experiment shows a variant of it, by the variant's series label. A
// package no experiment runs goes, with its tests and docs; one that gains
// or loses a reader changes its row here.
func TestEveryProtocolPackageIsRead(t *testing.T) {
	readers := map[string]string{ // package -> the experiment whose run shows it
		"hpcc":   "fig1a",
		"swift":  "fig1c",
		"timely": "incast-timely", // claim vaisf-convergence-timely
	}

	imported := map[string]bool{}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			imported[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}

	// The protocol package of each variant a run can show, by label.
	pkgOf := map[string]string{}
	for _, v := range variantsByKey(starParams(16)) {
		typ := reflect.TypeOf(v.make())
		if typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		pkgOf[v.label] = path.Base(typ.PkgPath())
	}

	entries, err := os.ReadDir(filepath.Join("..", "cc"))
	if err != nil {
		t.Fatal(err)
	}
	packages := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg := e.Name()
		packages[pkg] = true
		if !imported["faircc/internal/cc/"+pkg] {
			t.Errorf("internal/cc/%s: no non-test file of internal/exp imports it", pkg)
		}
		name, ok := readers[pkg]
		if !ok {
			t.Errorf("internal/cc/%s has no reader: no registered experiment runs it", pkg)
			continue
		}
		e, err := Get(name)
		if err != nil {
			t.Errorf("internal/cc/%s: %v", pkg, err)
			continue
		}
		results, _, err := e.RunWithStats(Config{Seed: 1, Scale: "small"})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shown := false
		for _, res := range results {
			for _, s := range res.Series {
				shown = shown || pkgOf[s.Label] == pkg
			}
		}
		if !shown {
			t.Errorf("internal/cc/%s: no series of %s's run is one of its variants", pkg, name)
		}
	}
	for pkg := range readers {
		if !packages[pkg] {
			t.Errorf("%s has a reader but internal/cc/%s does not exist", pkg, pkg)
		}
	}
}
