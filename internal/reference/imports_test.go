package reference

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoProductionImports parses the imports of every non-test Go file in
// the repository, the benchmark module included, and fails on any import
// of this package: production code carries only what a binary runs. Like
// the go tool, it skips directories named testdata or starting with "."
// or "_".
func TestNoProductionImports(t *testing.T) {
	const self = "repro/internal/reference"
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files, bench := 0, 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		if strings.HasPrefix(path, filepath.Join(root, "perfbench")+string(filepath.Separator)) {
			bench++
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == self {
				t.Errorf("%s imports %s, which only tests may import", fset.Position(imp.Pos()), self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 || bench == 0 {
		t.Fatalf("parsed %d files, %d of them in perfbench; the walk missed the repository", files, bench)
	}
}
