package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestLoaderHonorsBuildConstraints: a package carrying per-platform
// variants of the same declaration (filename suffixes and //go:build
// lines) must type-check — the loader keeps only the host platform's
// files, like the real build does.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module constrained\n\ngo 1.22\n")
	write("plat/doc.go", "// Package plat exists to carry platform variants.\npackage plat\n")
	// One filename-suffix variant per arch, all declaring the same const.
	for _, arch := range []string{"amd64", "arm64", "riscv64"} {
		write(fmt.Sprintf("plat/num_%s.go", arch),
			fmt.Sprintf("package plat\n\nconst num = %d\n", len(arch)))
	}
	// A //go:build pair: host OS vs everything else, same declaration.
	write("plat/tagged_host.go",
		fmt.Sprintf("//go:build %s\n\npackage plat\n\nconst tagged = true\n", runtime.GOOS))
	write("plat/tagged_other.go",
		fmt.Sprintf("//go:build !%s\n\npackage plat\n\nconst tagged = false\n", runtime.GOOS))
	// A combined form: an OS term and-ed with a parenthesised arch list.
	write("plat/combo.go",
		fmt.Sprintf("//go:build %s && (%s || fakearch)\n\npackage plat\n\nvar combo = num\n",
			runtime.GOOS, runtime.GOARCH))

	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join(root, "plat"))
	if err != nil {
		t.Fatalf("constrained package failed to load: %v", err)
	}
	// Exactly doc.go, the host-arch num file, tagged_host.go, combo.go.
	if got := len(p.Files); got != 4 {
		t.Errorf("loader kept %d files, want 4", got)
	}
	if p.Types.Scope().Lookup("combo") == nil {
		t.Error("combo declaration missing — //go:build file dropped")
	}
}

// TestSuffixMatchesHost pins the filename rules: a trailing _name only
// constrains when name is a recognized GOOS or GOARCH.
func TestSuffixMatchesHost(t *testing.T) {
	cases := map[string]bool{
		"plain.go":                      true,
		"num_" + runtime.GOARCH + ".go": true,
		"x_" + runtime.GOOS + "_" + runtime.GOARCH + ".go": true,
		"x_mips64le.go":    runtime.GOARCH == "mips64le",
		"x_plan9.go":       runtime.GOOS == "plan9",
		"x_plan9_amd64.go": runtime.GOOS == "plan9" && runtime.GOARCH == "amd64",
		"snapshot_util.go": true, // "util" is no GOOS/GOARCH
		"wasm.go":          true, // no underscore, no constraint
	}
	for name, want := range cases {
		if got := suffixMatchesHost(name); got != want {
			t.Errorf("suffixMatchesHost(%q) = %v, want %v", name, got, want)
		}
	}
}
