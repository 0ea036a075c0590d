package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/client"
)

// TestWriteJSONEncodeFailure: a value JSON cannot carry (here +Inf)
// answers 500 with a decodable error body, not the requested status
// with an empty one.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"cost": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body client.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("body %q: %v; want a JSON error", rec.Body.String(), err)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]int{"n": 1})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\"n\":1}\n" {
		t.Fatalf("ok path: %d %q", rec.Code, rec.Body.String())
	}
}
