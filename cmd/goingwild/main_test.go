package main

import (
	"slices"
	"strings"
	"testing"

	"goingwild/internal/cli"
)

// shape renders a selection as "section[block names]" per section, "-"
// standing for a nameless block.
func shape(sel []cli.Section) string {
	var parts []string
	for _, sec := range sel {
		var blocks []string
		for _, b := range sec.Blocks {
			if len(b.Names) == 0 {
				blocks = append(blocks, "-")
			} else {
				blocks = append(blocks, b.Names[0])
			}
		}
		parts = append(parts, sec.Name+"["+strings.Join(blocks, " ")+"]")
	}
	return strings.Join(parts, " ")
}

// TestExpSelectsFromTheTable pins -exp as a filter over the one section
// table: every name goingwild ever accepted still selects what it did,
// "all" leaves census out, the domains section's blocks answer to their
// own names, -export pulls the domains section into any run, and a name
// the table does not know is an error instead of an empty report.
func TestExpSelectsFromTheTable(t *testing.T) {
	const everything = "fig1[fig1] table1[table1] table2[table2] table3[table3] table4[table4] fig2[fig2] util[util] " +
		"verify[verify] amp[amp] dnssec[dnssec dnssec] popularity[popularity] netalyzr[netalyzr] " +
		"domains[pipeline domains table5 fig4 cases] degraded[-]"
	for _, tc := range []struct {
		exp, export, want string
	}{
		{exp: "all", want: everything},
		{exp: "all,census", want: "census[census] " + everything},
		{exp: "census", want: "census[census] degraded[-]"},
		{exp: "fig1", want: "fig1[fig1] degraded[-]"},
		{exp: " table3 , util ", want: "table3[table3] util[util] degraded[-]"},
		{exp: "util,table3", want: "table3[table3] util[util] degraded[-]"},
		{exp: "netalyzr", want: "netalyzr[netalyzr] degraded[-]"},
		{exp: "domains", want: "domains[domains table5] degraded[-]"},
		{exp: "table5", want: "domains[table5] degraded[-]"},
		{exp: "fig4", want: "domains[fig4] degraded[-]"},
		{exp: "cases,pipeline", want: "domains[pipeline cases] degraded[-]"},
		{exp: "fig1", export: "out", want: "fig1[fig1] domains[-] degraded[-]"},
		{exp: "fig4", export: "out", want: "domains[- fig4] degraded[-]"},
	} {
		sel, err := cli.Select(sections(new(cli.Report), tc.export), tc.exp)
		if err != nil {
			t.Errorf("-exp %q: %v", tc.exp, err)
		} else if got := shape(sel); got != tc.want {
			t.Errorf("-exp %q -export %q selects\n  %s\nwant\n  %s", tc.exp, tc.export, got, tc.want)
		}
	}
	for _, exp := range []string{"tabel3", "", "fig1,", "fig1,,util", "ALL", "degraded", "export"} {
		_, err := cli.Select(sections(new(cli.Report), ""), exp)
		if err == nil || !strings.Contains(err.Error(), "all,census,fig1") {
			t.Errorf("-exp %q: err = %v, want an error naming the valid experiments", exp, err)
		}
	}
	names := cli.ExpNames(sections(new(cli.Report), ""))
	for _, name := range []string{"all", "census", "table5", "netalyzr", "popularity", "pipeline"} {
		if !slices.Contains(names, name) {
			t.Errorf("the -exp help omits %q: %v", name, names)
		}
	}
}
