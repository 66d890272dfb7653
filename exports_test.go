package goingwild

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedExports lists the exported functions and methods that no
// non-test code names, each with the reason it stays. Keys are "pkg.Func"
// or "pkg.Type.Method"; the pkg is the declaring directory's last
// element (the root package is "goingwild"). A reason opens with its
// category:
//   - test support: other packages' tests need it, and Go shares no
//     _test.go file across packages (its doc comment says so too);
//   - planted truth: a ground-truth accessor of the simulated world,
//     kept for the planted column of the record (ROADMAP item 5);
//   - E18: vanished-network forensics, which the record does not run yet
//     (ROADMAP item 6(b) decides it);
//   - interface: called through a standard-library interface, which an
//     identifier count cannot see.
var unusedExports = map[string]string{
	"dnswire.NewResponse":                 "test support: dnssec, scanner and the root benchmarks build responses with it",
	"dnswire.Message.AddAnswer":           "test support: dnssec, scanner and the root benchmarks build responses with it",
	"dnswire.Message.AddEDNS":             "test support: scanner's ANY reference and wildnet's tests build EDNS queries with it",
	"dnswire.DecodeTargetQName":           "test support: wildnet's tests hold the handler's scan-base answer to it",
	"geodb.DB.ASes":                       "test support: wildnet's tests pick a planted AS fate from it",
	"lfsr.DefaultReserved":                "test support: the root benchmarks generate targets around it",
	"metrics.Snapshot.StripTiming":        "test support: the equivalence harness and the core, scanner and resolvesvc tests compare stripped snapshots",
	"wildnet.MustNewWorld":                "test support: the root benchmarks and ablations build worlds with it",
	"wildnet.MustChaosProfile":            "test support: scanner's tests arm fault profiles with it",
	"wildnet.World.ZonePublicKey":         "test support: core's tests validate signed answers against it",
	"wildnet.World.AmpClassAt":            "planted truth: each resolver's amplification class",
	"wildnet.World.PlantedSnoopGap":       "planted truth: the cache-snooping gap the popularity probe recovers",
	"wildnet.World.CensorDecision":        "planted truth: which resolvers censor which names",
	"wildnet.World.StationCount":          "planted truth: how many manipulation stations the world holds",
	"wildnet.World.ActiveCensorPages":     "planted truth: the censorship landing pages in use",
	"devices.HardwareShares":              "planted truth: the device mix behind Table 4",
	"devices.OSShares":                    "planted truth: the operating-system mix behind Table 4",
	"software.VendorShare":                "planted truth: the DNS software mix behind Table 3",
	"churn.ClassifyVanished":              "E18: classifies the networks whose resolvers vanished",
	"core.Study.SecondaryAliveSetContext": "E18: the secondary-vantage alive set ClassifyVanished reads",
	"lint.Loader.Import":                  "interface: go/types calls it through types.Config.Importer",
}

// TestEveryExportHasACaller holds the module to one entry point per
// operation: every exported function or method declared in the root
// package, internal/ or cmd/ is named by some non-test Go file of the
// module, the examples or the benchmark module, outside its own
// declaration. An export nothing names either goes or is listed in
// unusedExports with its reason, and an entry whose function gained a
// caller (or went) fails too, so the list cannot go stale. Uses are
// counted by identifier, the way a grep would: a method counts as used
// wherever any identifier spells its name.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct {
		key, name, file, doc string
		start, end           token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]token.Pos{} // identifier → every position it appears at
	for _, root := range []string{".", "internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != root && (root == "." || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					uses[id.Name] = append(uses[id.Name], id.Pos())
				}
				return true
			})
			if root == "examples" || root == "bench" {
				return nil
			}
			pkg := filepath.Base(filepath.Dir(path))
			if pkg == "." {
				pkg = "goingwild"
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				key := pkg + "." + fd.Name.Name
				if fd.Recv != nil {
					key = pkg + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, decl{key, fd.Name.Name, path, fd.Doc.Text(), fd.Pos(), fd.End()})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found: run from the module root")
	}

	seen := map[string]bool{}
	var missing []string
	for _, d := range decls {
		used := false
		for _, pos := range uses[d.name] {
			if pos < d.start || pos >= d.end {
				used = true
				break
			}
		}
		reason, listed := unusedExports[d.key]
		seen[d.key] = true
		switch {
		case !used && !listed:
			missing = append(missing, d.key+" ("+d.file+")")
		case used && listed:
			t.Errorf("%s is on the unusedExports list, but non-test code names it now: take it off the list", d.key)
		case listed && strings.HasPrefix(reason, "test support:") && !strings.Contains(d.doc, "Test support:"):
			t.Errorf("%s is listed as test support, but its doc comment has no \"Test support:\" line", d.key)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("exported %s has no caller outside tests: call it, unexport it, move it into a _test.go file, or list it in unusedExports with its reason", m)
	}
	for key := range unusedExports {
		if !seen[key] {
			t.Errorf("unusedExports lists %s, which is not declared any more", key)
		}
	}
}

// recvType is the type name of a method receiver: T for T, *T, T[P] and *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
