package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Dist(tc.q); !almostEqual(got, tc.want) {
				t.Errorf("Dist(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want)
			}
			if got := tc.q.Dist(tc.p); !almostEqual(got, tc.want) {
				t.Errorf("Dist not symmetric: %v", got)
			}
			if got := tc.p.Dist2(tc.q); !almostEqual(got, tc.want*tc.want) {
				t.Errorf("Dist2 = %v, want %v", got, tc.want*tc.want)
			}
		})
	}
}

func TestDistTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{mod1000(ax), mod1000(ay)}
		b := Point{mod1000(bx), mod1000(by)}
		c := Point{mod1000(cx), mod1000(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mod1000(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 1000)
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	r := Rect{Point{1, 2}, Point{3, 4}}
	if got := e.Union(r); got != r {
		t.Errorf("empty union: got %v want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("union empty: got %v want %v", got, r)
	}
	if e.Diagonal() != 0 {
		t.Error("empty rect should have zero diagonal")
	}
	if e.Contains(Point{0, 0}) {
		t.Error("empty rect contains nothing")
	}
}

func TestRectPredicates(t *testing.T) {
	r := Rect{Point{0, 0}, Point{10, 10}}
	tests := []struct {
		name   string
		s      Rect
		inside bool
	}{
		{"identical", r, true},
		{"inside", Rect{Point{2, 2}, Point{3, 3}}, true},
		{"overlap", Rect{Point{5, 5}, Point{15, 15}}, false},
		{"touch edge", Rect{Point{10, 0}, Point{20, 10}}, false},
		{"touch corner", Rect{Point{10, 10}, Point{20, 20}}, false},
		{"disjoint", Rect{Point{11, 11}, Point{20, 20}}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := r.ContainsRect(tc.s); got != tc.inside {
				t.Errorf("ContainsRect = %v want %v", got, tc.inside)
			}
		})
	}
}

func TestRectMeasures(t *testing.T) {
	r := Rect{Point{1, 2}, Point{4, 6}}
	if got := r.Diagonal(); !almostEqual(got, 5) {
		t.Errorf("Diagonal = %v want 5", got)
	}
	if got := r.Center(); got != (Point{2.5, 4}) {
		t.Errorf("Center = %v", got)
	}
}

func TestMinDist(t *testing.T) {
	r := Rect{Point{0, 0}, Point{10, 10}}
	tests := []struct {
		name string
		p    Point
		want float64
	}{
		{"inside", Point{5, 5}, 0},
		{"on boundary", Point{0, 5}, 0},
		{"left", Point{-3, 5}, 3},
		{"above", Point{5, 14}, 4},
		{"corner diagonal", Point{13, 14}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := r.MinDist(tc.p); !almostEqual(got, tc.want) {
				t.Errorf("MinDist = %v want %v", got, tc.want)
			}
		})
	}
}

// MinDist must lower-bound the distance from the query to every point in
// the rectangle (admissibility of best-first NN search).
func TestMinDistAdmissible(t *testing.T) {
	f := func(px, py, ax, ay, bx, by float64) bool {
		q := Point{mod1000(px), mod1000(py)}
		a := Point{mod1000(ax), mod1000(ay)}
		b := Point{mod1000(bx), mod1000(by)}
		r := EmptyRect().ExtendPoint(a).ExtendPoint(b)
		md := r.MinDist(q)
		return md <= q.Dist(a)+1e-9 && md <= q.Dist(b)+1e-9 &&
			md <= q.Dist(r.Center())+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinDistRect(t *testing.T) {
	r := Rect{Point{0, 0}, Point{2, 2}}
	tests := []struct {
		name string
		s    Rect
		want float64
	}{
		{"overlap", Rect{Point{1, 1}, Point{3, 3}}, 0},
		{"touching", Rect{Point{2, 0}, Point{4, 2}}, 0},
		{"right gap", Rect{Point{5, 0}, Point{6, 2}}, 3},
		{"diag gap", Rect{Point{5, 6}, Point{7, 8}}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := r.MinDistRect(tc.s); !almostEqual(got, tc.want) {
				t.Errorf("MinDistRect = %v want %v", got, tc.want)
			}
			if got := tc.s.MinDistRect(r); !almostEqual(got, tc.want) {
				t.Errorf("MinDistRect not symmetric: %v", got)
			}
		})
	}
}

// Group-MBR mindist must lower-bound the point mindist for any member
// point — the property §3.4.2's ANN search relies on.
func TestMinDistRectAdmissibleForMembers(t *testing.T) {
	f := func(qx, qy, gx, gy, ex1, ey1, ex2, ey2 float64) bool {
		member := Point{mod1000(qx), mod1000(qy)}
		other := Point{mod1000(gx), mod1000(gy)}
		group := EmptyRect().ExtendPoint(member).ExtendPoint(other)
		e := EmptyRect().ExtendPoint(Point{mod1000(ex1), mod1000(ey1)}).ExtendPoint(Point{mod1000(ex2), mod1000(ey2)})
		return group.MinDistRect(e) <= e.MinDist(member)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxDist(t *testing.T) {
	r := Rect{Point{0, 0}, Point{3, 4}}
	if got := r.MaxDist(Point{0, 0}); !almostEqual(got, 5) {
		t.Errorf("MaxDist corner = %v want 5", got)
	}
	if got := r.MaxDist(Point{-3, 0}); !almostEqual(got, math.Sqrt(36+16)) {
		t.Errorf("MaxDist outside = %v", got)
	}
}

func TestSplitLongest(t *testing.T) {
	r := Rect{Point{0, 0}, Point{10, 4}}
	a, b := r.SplitLongest()
	if a != (Rect{Point{0, 0}, Point{5, 4}}) || b != (Rect{Point{5, 0}, Point{10, 4}}) {
		t.Fatalf("x-split wrong: %v %v", a, b)
	}
	r = Rect{Point{0, 0}, Point{4, 10}}
	a, b = r.SplitLongest()
	if a != (Rect{Point{0, 0}, Point{4, 5}}) || b != (Rect{Point{0, 5}, Point{4, 10}}) {
		t.Fatalf("y-split wrong: %v %v", a, b)
	}
}

func TestSplitLongestHalvesDiagonalEventually(t *testing.T) {
	r := Rect{Point{0, 0}, Point{100, 100}}
	parts := []Rect{r}
	const delta = 30.0
	for i := 0; i < 20; i++ {
		var next []Rect
		done := true
		for _, p := range parts {
			if p.Diagonal() > delta {
				a, b := p.SplitLongest()
				next = append(next, a, b)
				done = false
			} else {
				next = append(next, p)
			}
		}
		parts = next
		if done {
			break
		}
	}
	areaOf := func(r Rect) float64 { return (r.Max.X - r.Min.X) * (r.Max.Y - r.Min.Y) }
	var area float64
	for _, p := range parts {
		if p.Diagonal() > delta {
			t.Fatalf("part %v still exceeds delta", p)
		}
		area += areaOf(p)
	}
	if !almostEqual(area, areaOf(r)) {
		t.Fatalf("splits must cover the rectangle: area %v want %v", area, areaOf(r))
	}
}

func TestCentroid(t *testing.T) {
	pts := []Point{{0, 0}, {10, 0}}
	if got := Centroid(pts, []float64{1, 1}); got != (Point{5, 0}) {
		t.Errorf("uniform centroid = %v", got)
	}
	// Capacity-weighted, as SA uses: weight 3 on the right point.
	if got := Centroid(pts, []float64{1, 3}); got != (Point{7.5, 0}) {
		t.Errorf("weighted centroid = %v", got)
	}
	// Zero total weight falls back to the mean.
	if got := Centroid(pts, []float64{0, 0}); got != (Point{5, 0}) {
		t.Errorf("zero-weight centroid = %v", got)
	}
}

func TestCentroidInsideMBR(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, w1, w2, w3 float64) bool {
		pts := []Point{
			{mod1000(ax), mod1000(ay)},
			{mod1000(bx), mod1000(by)},
			{mod1000(cx), mod1000(cy)},
		}
		w := []float64{mod1000(w1), mod1000(w2), mod1000(w3)}
		c := Centroid(pts, w)
		r := EmptyRect()
		for _, p := range pts {
			r = r.ExtendPoint(p)
		}
		// Tiny tolerance for floating error at the boundary.
		grow := Rect{Point{r.Min.X - 1e-9, r.Min.Y - 1e-9}, Point{r.Max.X + 1e-9, r.Max.Y + 1e-9}}
		return grow.Contains(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddScale(t *testing.T) {
	if got := (Point{1, 2}).Add(Point{3, 4}); got != (Point{4, 6}) {
		t.Errorf("Add = %v", got)
	}
	if got := (Point{1, 2}).Scale(2.5); got != (Point{2.5, 5}) {
		t.Errorf("Scale = %v", got)
	}
}
