package dataio

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/rtree"
)

func TestProvidersRoundTrip(t *testing.T) {
	in := []core.Provider{
		{Pt: geo.Point{X: 1.5, Y: 2.25}, Cap: 80},
		{Pt: geo.Point{X: 0, Y: 999.999999}, Cap: 1},
	}
	var buf bytes.Buffer
	if err := WriteProviders(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProviders(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestCustomersRoundTrip(t *testing.T) {
	in := []rtree.Item{
		{ID: 7, Pt: geo.Point{X: 3.5, Y: 4.5}},
		{ID: 0, Pt: geo.Point{X: 0, Y: 0}},
	}
	var buf bytes.Buffer
	if err := WriteCustomers(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCustomers(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestCommentsAndBlanksSkipped(t *testing.T) {
	src := "# providers\n\n1,2,3\n  \n# trailing\n4,5,6\n"
	got, err := ReadProviders(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Cap != 3 || got[1].Cap != 6 {
		t.Fatalf("got %+v", got)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"wrong field count": "1,2\n",
		"bad x":             "x,2,3\n",
		"bad capacity":      "1,2,three\n",
		"zero capacity":     "1,2,0\n",
		"negative capacity": "1,2,-5\n",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadProviders(strings.NewReader(src)); err == nil {
				t.Fatalf("input %q must fail", src)
			}
		})
	}
	custCases := map[string]string{
		"bad id":       "x,1,2\n",
		"duplicate id": "1,0,0\n1,5,5\n",
		"bad y":        "1,2,y\n",
	}
	for name, src := range custCases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadCustomers(strings.NewReader(src)); err == nil {
				t.Fatalf("input %q must fail", src)
			}
		})
	}
}

// TestNonFiniteCoordinatesRejected: NaN and ±Inf parse as floats, but
// both readers must refuse them and name the offending line.
func TestNonFiniteCoordinatesRejected(t *testing.T) {
	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity"} {
		prov := "1,2,3\n" + v + ",2,3\n"
		if _, err := ReadProviders(strings.NewReader(prov)); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("ReadProviders(%q) = %v; want a line 2 error", prov, err)
		}
		cust := "0,1,1\n1,5," + v + "\n"
		if _, err := ReadCustomers(strings.NewReader(cust)); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("ReadCustomers(%q) = %v; want a line 2 error", cust, err)
		}
	}
}

func TestWriteMatching(t *testing.T) {
	pairs := []core.Pair{
		{Provider: 0, CustomerID: 5, Dist: 1.25},
		{Provider: 2, CustomerID: 9, Dist: 3},
	}
	var buf bytes.Buffer
	if err := WriteMatching(&buf, pairs); err != nil {
		t.Fatal(err)
	}
	want := "0,5,1.250000\n2,9,3.000000\n"
	if buf.String() != want {
		t.Fatalf("got %q want %q", buf.String(), want)
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	ppath := dir + "/q.csv"
	cpath := dir + "/p.csv"
	if err := writeFile(ppath, "10,20,3\n"); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(cpath, "0,1,2\n1,3,4\n"); err != nil {
		t.Fatal(err)
	}
	ps, err := ReadProvidersFile(ppath)
	if err != nil || len(ps) != 1 {
		t.Fatalf("%v %v", ps, err)
	}
	cs, err := ReadCustomersFile(cpath)
	if err != nil || len(cs) != 2 {
		t.Fatalf("%v %v", cs, err)
	}
	if _, err := ReadProvidersFile(dir + "/missing.csv"); err == nil {
		t.Fatal("missing file must fail")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
