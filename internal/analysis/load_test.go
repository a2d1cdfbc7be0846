package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadModuleSkipsNestedModules: a directory below the root with a
// go.mod of its own is another module, which "./..." excludes, so
// LoadModule must not load it or anything under it.
func TestLoadModuleSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module outer\n\ngo 1.22\n")
	write("a.go", "package outer\n")
	write("inner/b.go", "package inner\n")
	write("nested/go.mod", "module nested\n\ngo 1.22\n")
	write("nested/c.go", "package nested\n")
	write("nested/deeper/d.go", "package deeper\n")

	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	want := []string{"outer", "outer/inner"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("LoadModule loaded %v, want %v", got, want)
	}
}
