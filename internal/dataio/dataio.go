// Package dataio reads and writes the CSV dataset formats used by the
// command-line tools (ccagen, ccarun):
//
//	providers: x,y,capacity
//	customers: id,x,y
//	matchings: provider,customer,dist
//
// Blank lines and lines starting with '#' are ignored.
package dataio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/rtree"
)

// WriteProviders writes providers as x,y,capacity rows.
func WriteProviders(w io.Writer, providers []core.Provider) error {
	bw := bufio.NewWriter(w)
	for _, p := range providers {
		if _, err := fmt.Fprintf(bw, "%.6f,%.6f,%d\n", p.Pt.X, p.Pt.Y, p.Cap); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadProviders parses x,y,capacity rows.
func ReadProviders(r io.Reader) ([]core.Provider, error) {
	var out []core.Provider
	err := eachRecord(r, 3, func(line int, f []string) error {
		x, err := parseFloat(f[0])
		if err != nil {
			return fmt.Errorf("line %d: x: %w", line, err)
		}
		y, err := parseFloat(f[1])
		if err != nil {
			return fmt.Errorf("line %d: y: %w", line, err)
		}
		k, err := strconv.Atoi(strings.TrimSpace(f[2]))
		if err != nil {
			return fmt.Errorf("line %d: capacity: %w", line, err)
		}
		if k <= 0 {
			return fmt.Errorf("line %d: capacity must be positive, got %d", line, k)
		}
		out = append(out, core.Provider{Pt: geo.Point{X: x, Y: y}, Cap: k})
		return nil
	})
	return out, err
}

// WriteCustomers writes customers as id,x,y rows.
func WriteCustomers(w io.Writer, items []rtree.Item) error {
	bw := bufio.NewWriter(w)
	for _, it := range items {
		if _, err := fmt.Fprintf(bw, "%d,%.6f,%.6f\n", it.ID, it.Pt.X, it.Pt.Y); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCustomers parses id,x,y rows.
func ReadCustomers(r io.Reader) ([]rtree.Item, error) {
	var out []rtree.Item
	seen := make(map[int64]bool)
	err := eachRecord(r, 3, func(line int, f []string) error {
		id, err := strconv.ParseInt(strings.TrimSpace(f[0]), 10, 64)
		if err != nil {
			return fmt.Errorf("line %d: id: %w", line, err)
		}
		if seen[id] {
			return fmt.Errorf("line %d: duplicate customer id %d", line, id)
		}
		seen[id] = true
		x, err := parseFloat(f[1])
		if err != nil {
			return fmt.Errorf("line %d: x: %w", line, err)
		}
		y, err := parseFloat(f[2])
		if err != nil {
			return fmt.Errorf("line %d: y: %w", line, err)
		}
		out = append(out, rtree.Item{ID: id, Pt: geo.Point{X: x, Y: y}})
		return nil
	})
	return out, err
}

// WriteMatching writes pairs as provider,customer,dist rows.
func WriteMatching(w io.Writer, pairs []core.Pair) error {
	bw := bufio.NewWriter(w)
	for _, p := range pairs {
		if _, err := fmt.Fprintf(bw, "%d,%d,%.6f\n", p.Provider, p.CustomerID, p.Dist); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadProvidersFile and ReadCustomersFile are file-path conveniences.
func ReadProvidersFile(path string) ([]core.Provider, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out, err := ReadProviders(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// ReadCustomersFile reads a customer CSV from disk.
func ReadCustomersFile(path string) ([]rtree.Item, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out, err := ReadCustomers(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// parseFloat parses a coordinate. NaN and ±Inf parse as floats but
// are rejected: a non-finite point has no distance to anything.
func parseFloat(s string) (float64, error) {
	s = strings.TrimSpace(s)
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, fmt.Errorf("non-finite coordinate %q", s)
	}
	return v, err
}

// eachRecord scans CSV-ish lines, skipping blanks and '#' comments.
func eachRecord(r io.Reader, fields int, fn func(line int, f []string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != fields {
			return fmt.Errorf("line %d: want %d fields, got %d", line, fields, len(parts))
		}
		if err := fn(line, parts); err != nil {
			return err
		}
	}
	return sc.Err()
}
