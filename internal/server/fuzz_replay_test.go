package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	cca "repro"
	"repro/client"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/storage"
)

// FuzzSessionReplay feeds replaySession a session WAL of a valid create
// record followed by fuzzer-chosen records, one JSON document per line:
// any op, id, coordinate, provider or capacity, and cost rows of any
// length and value. Every input must either replay to a session whose
// matching passes cca.Validate against the replayed capacities and live
// set, or return an error; never panic. The seeds are a recorded
// delivery-scenario session, Euclidean (whose arrivals log no row) and
// on an 8-grid road network, with its logged rows and with every row
// stripped (a log from before rows).
func FuzzSessionReplay(f *testing.F) {
	s, err := New(Config{StateDir: f.TempDir(), Engine: &cca.Engine{Workers: 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		s.Close()
		s.cfg.Engine.Close()
	})
	headers := map[bool][]byte{}
	for _, network := range []bool{false, true} {
		header, events := recordDeliverySession(f, s, network)
		headers[network] = header
		f.Add(network, bytes.Join(events, []byte("\n")))
		for i, ev := range events {
			var rec map[string]json.RawMessage
			if err := json.Unmarshal(ev, &rec); err != nil {
				f.Fatal(err)
			}
			delete(rec, "row")
			if events[i], err = json.Marshal(rec); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(network, bytes.Join(events, []byte("\n")))
	}
	f.Add(false, []byte(`{"op":"arrive","id":1,"x":1,"y":2,"row":[1,2,3]}`))
	f.Add(false, []byte(`{"op":"arrive","id":1,"x":1,"y":2,"row":[1e308,1e308,1e308,1e308]}`+"\n"+
		`{"op":"arrive","id":2,"x":1,"y":2,"row":[1e308,1e308,1e308,1e308]}`))
	f.Add(true, []byte(`{"op":"resize","provider":0,"cap":9}`+"\n"+`{"op":"depart","id":7}`))

	const id = "00000000000000f0"
	f.Fuzz(func(t *testing.T, network bool, records []byte) {
		// Frame the log in memory and write the file once: a log on a
		// file store syncs every record.
		ms := storage.NewMemStore(storage.DefaultPageSize)
		l, err := storage.NewLog(ms)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(headers[network]); err != nil {
			t.Fatal(err)
		}
		for _, rec := range bytes.Split(records, []byte("\n")) {
			if len(rec) == 0 {
				continue
			}
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		img := make([]byte, ms.NumPages()*storage.DefaultPageSize)
		for i := 0; i < ms.NumPages(); i++ {
			if err := ms.Read(storage.PageID(i), img[i*storage.DefaultPageSize:]); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(s.sessionWALPath(id), img, 0o644); err != nil {
			t.Fatal(err)
		}

		sess, err := s.replaySession(id)
		if err != nil {
			return
		}
		defer sess.log.Close()
		m := sess.m
		// Validate reads the providers' capacities alone.
		providers := make([]cca.Provider, deliveryProviders)
		for i := range providers {
			providers[i].Cap = m.ProviderCap(i)
		}
		live := m.LiveCustomers()
		pts := make([]cca.Point, len(live))
		for i, c := range live {
			pts[i] = c.Pt
		}
		customers, err := cca.IndexCustomers(pts)
		if err != nil {
			t.Fatal(err)
		}
		if err := cca.Validate(providers, customers, m.Matching()); err != nil {
			t.Fatalf("replayed session: %v", err)
		}
	})
}

// deliveryProviders is the provider count of the recorded sessions.
const deliveryProviders = 4

// recordDeliverySession drives a delivery-scenario stream through the
// server's session endpoints, Euclidean or on an 8-grid road network,
// and returns the create record and the event records of its WAL.
func recordDeliverySession(f *testing.F, s *Server, network bool) ([]byte, [][]byte) {
	space := geo.Rect{Max: geo.Point{X: 1000, Y: 1000}}
	w, err := datagen.NewChurn("delivery", datagen.NewNetwork(8, space, 3),
		datagen.ChurnConfig{Events: 60, Providers: deliveryProviders, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	req := client.SessionRequest{}
	for _, p := range w.Providers {
		req.Providers = append(req.Providers, client.Provider{X: p.Pt.X, Y: p.Pt.Y, Cap: p.Cap})
	}
	if network {
		req.Metric, req.NetGrid, req.NetSeed = "network", 8, 3
	}
	var info client.SessionInfo
	call(f, s, "/v1/sessions", req, &info)
	for _, ev := range w.Events {
		switch ev.Kind {
		case datagen.EventArrive:
			call(f, s, "/v1/sessions/"+info.ID+"/arrive", client.ArriveRequest{ID: ev.ID, X: ev.Pt.X, Y: ev.Pt.Y}, nil)
		case datagen.EventDepart:
			call(f, s, "/v1/sessions/"+info.ID+"/depart", client.DepartRequest{ID: ev.ID}, nil)
		case datagen.EventResize:
			call(f, s, "/v1/sessions/"+info.ID+"/resize", client.ResizeRequest{Provider: ev.Provider, Cap: ev.NewCap}, nil)
		}
	}
	fs, err := storage.OpenFileStore(filepath.Join(s.sessionsDir(), info.ID+".wal"), storage.DefaultPageSize)
	if err != nil {
		f.Fatal(err)
	}
	var records [][]byte
	l, err := storage.OpenLog(fs, func(p []byte) error {
		records = append(records, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	l.Close()
	return records[0], records[1:]
}

// call POSTs body to the server's handler and decodes a 200 response
// into out (when non-nil).
func call(f *testing.F, s *Server, path string, body, out any) {
	data, err := json.Marshal(body)
	if err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
	if rec.Code != http.StatusOK {
		f.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			f.Fatal(err)
		}
	}
}
