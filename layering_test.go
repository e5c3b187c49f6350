package mosaicsim

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// soleImporterOK lists the internal packages allowed to have fewer than two
// importers, each with its reason.
var soleImporterOK = map[string]string{
	"href":    "the independent reference model",
	"replay":  "kept apart from sim so its proofs read alone",
	"testgen": "test support",
}

// TestLayering asserts the import direction DESIGN.md §3 draws: core and mem
// never import soc, nothing under internal/ imports the facade, and every
// internal package is imported by at least two packages or by a command, or
// is on the allowlist above.
func TestLayering(t *testing.T) {
	const module = "mosaicsim"
	// Importing directories per internal package, from non-test files.
	importers := map[string]map[string]bool{}
	internal := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if pkg, ok := strings.CutPrefix(dir, "internal/"); ok {
			internal[pkg] = true
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			imp := strings.Trim(spec.Path.Value, `"`)
			if imp == module && strings.HasPrefix(dir, "internal/") {
				t.Errorf("%s imports the facade", path)
			}
			pkg, ok := strings.CutPrefix(imp, module+"/internal/")
			if !ok {
				continue
			}
			if pkg == "soc" && (dir == "internal/core" || dir == "internal/mem") {
				t.Errorf("%s imports soc", path)
			}
			if strings.HasSuffix(path, "_test.go") || dir == "internal/"+pkg {
				continue
			}
			if importers[pkg] == nil {
				importers[pkg] = map[string]bool{}
			}
			importers[pkg][dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range internal {
		var dirs []string
		byCmd := false
		for dir := range importers[pkg] {
			dirs = append(dirs, dir)
			byCmd = byCmd || strings.HasPrefix(dir, "cmd/")
		}
		sort.Strings(dirs)
		enough := len(dirs) >= 2 || byCmd
		if reason, listed := soleImporterOK[pkg]; listed && enough {
			t.Errorf("internal/%s is allowlisted (%s) but imported by %v: drop it from the list", pkg, reason, dirs)
		} else if !listed && !enough {
			t.Errorf("internal/%s is imported only by %v: fold it into its importer", pkg, dirs)
		}
	}
}
