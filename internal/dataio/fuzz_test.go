package dataio

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDatasetCSV feeds arbitrary bytes to both CSV readers. They must
// never panic; every accepted row must have finite coordinates (and a
// positive capacity or a unique id); and writing the accepted rows and
// reading them back must reproduce the same rows, up to the writers'
// six-decimal rounding, with a second write byte-identical to the first.
func FuzzDatasetCSV(f *testing.F) {
	for _, seed := range []string{
		"1,2,3\n4,5,6\n",
		"# comment\n\n0,10.5,20.25\n1,600,420\n",
		"0,1,1\n1,NaN,5\n",
		"1,+Inf,3\n",
		"1,0,0\n1,5,5\n",
		"7,1e300,-1e-9\n",
		"0x1p-2,3,4\n",
		"1,2\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if items, err := ReadCustomers(bytes.NewReader(data)); err == nil {
			seen := make(map[int64]bool, len(items))
			for _, it := range items {
				if !finite(it.Pt.X) || !finite(it.Pt.Y) {
					t.Fatalf("accepted non-finite customer %+v", it)
				}
				if seen[it.ID] {
					t.Fatalf("accepted duplicate customer id %d", it.ID)
				}
				seen[it.ID] = true
			}
			var first bytes.Buffer
			if err := WriteCustomers(&first, items); err != nil {
				t.Fatal(err)
			}
			again, err := ReadCustomers(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("re-reading written customers: %v\n%s", err, first.Bytes())
			}
			if len(again) != len(items) {
				t.Fatalf("re-read %d customers, wrote %d", len(again), len(items))
			}
			for i := range items {
				a, b := items[i], again[i]
				if a.ID != b.ID || !rounded(a.Pt.X, b.Pt.X) || !rounded(a.Pt.Y, b.Pt.Y) {
					t.Fatalf("row %d: wrote %+v, re-read %+v", i, a, b)
				}
			}
			var second bytes.Buffer
			if err := WriteCustomers(&second, again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("customer rows not stable under write/read:\n%s\n%s", first.Bytes(), second.Bytes())
			}
		}
		if provs, err := ReadProviders(bytes.NewReader(data)); err == nil {
			for _, p := range provs {
				if !finite(p.Pt.X) || !finite(p.Pt.Y) || p.Cap <= 0 {
					t.Fatalf("accepted invalid provider %+v", p)
				}
			}
			var buf bytes.Buffer
			if err := WriteProviders(&buf, provs); err != nil {
				t.Fatal(err)
			}
			again, err := ReadProviders(&buf)
			if err != nil {
				t.Fatalf("re-reading written providers: %v", err)
			}
			if len(again) != len(provs) {
				t.Fatalf("re-read %d providers, wrote %d", len(again), len(provs))
			}
			for i := range provs {
				a, b := provs[i], again[i]
				if a.Cap != b.Cap || !rounded(a.Pt.X, b.Pt.X) || !rounded(a.Pt.Y, b.Pt.Y) {
					t.Fatalf("row %d: wrote %+v, re-read %+v", i, a, b)
				}
			}
		}
	})
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// rounded reports whether b is a after the writers' %.6f rounding: at
// most half a unit of the sixth decimal, plus the one-ulp slack of
// parsing that decimal back to the nearest float64.
func rounded(a, b float64) bool { return math.Abs(a-b) <= 5e-7+math.Abs(a)*0x1p-52 }
