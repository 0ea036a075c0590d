package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	cca "repro"
	"repro/internal/server"
)

// ccad is one in-process ccad: an Engine, a server.Server over it, and
// a loopback listener. The benchmark's single client talks to it over
// real HTTP.
type ccad struct {
	engine *cca.Engine
	srv    *server.Server
	hs     *http.Server
	ln     net.Listener
	url    string
	done   chan struct{}
}

// boot starts a ccad over dataDir/stateDir. The returned time is when
// server.New was called, the start of every setup and recovery timing.
func boot(dataDir, stateDir string) (*ccad, time.Time, error) {
	quiesce()
	begin := time.Now()
	engine := &cca.Engine{Workers: workers()}
	srv, err := server.New(server.Config{Engine: engine, DataDir: dataDir, StateDir: stateDir})
	if err != nil {
		engine.Close()
		return nil, begin, fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		engine.Close()
		return nil, begin, err
	}
	d := &ccad{engine: engine, srv: srv, ln: ln, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	d.hs = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, begin, nil
}

// stop shuts the listener and waits for the serve loop. With clean set
// it also closes the server's durable-state handles; without it the
// server is abandoned the way a crash would leave it (WALs never
// closed), and only the engine's workers are released.
func (d *ccad) stop(clean bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.done
	if clean {
		d.srv.Close()
	}
	d.engine.Close()
}

// httpClient is the single closed-loop client: one keep-alive
// connection, no timeouts beyond the run's own.
var httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}

// call sends one request and returns the raw response body and the
// client-side latency: from just before the request is written to the
// last body byte read. Decoding happens after the clock stops.
func call(method, url string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode/100 != 2 {
		return out, lat, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, lat, nil
}

// callJSON is call with a marshaled request and a decoded response.
func callJSON(method, url string, in, out any) ([]byte, time.Duration, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return nil, 0, err
		}
	}
	raw, lat, err := call(method, url, body)
	if err != nil {
		return raw, lat, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return raw, lat, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return raw, lat, nil
}

// scrape reads /metrics into series → value ("name{labels}" keys).
func scrape(d *ccad) (map[string]float64, error) {
	raw, _, err := call("GET", d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumPrefix adds every series whose key starts with prefix (all label
// sets of one family).
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// delta returns after−before for one family (summed over labels).
func delta(before, after map[string]float64, prefix string) float64 {
	return sumPrefix(after, prefix) - sumPrefix(before, prefix)
}

// ratio is hits/(hits+misses), 0 when nothing was looked up.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// cpuTime is the process's user+system CPU time so far (rusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far (rusage
// maxrss, KiB on Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified), or 0 for
// an empty sample (a layer the workload bypasses).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// dirBytes sums the sizes of the regular files in dir whose names end
// with suffix.
func dirBytes(dir, suffix string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// quiesce runs before every timed phase: it collects the heap and
// flushes dirty pages to disk, so a timed phase neither pays for
// earlier garbage nor has its fsyncs queue behind earlier writeback.
func quiesce() {
	runtime.GC()
	syscall.Sync()
}

// workers is the engine's worker count: one per CPU, never more.
func workers() int { return runtime.NumCPU() }

// opsPerWindow sizes the windows a timed pass is split into: each holds
// at least 100 operations, so a window's p90 has ten samples beyond it.
const opsPerWindow = 100

// meter records a timed pass in consecutive windows of at least
// opsPerWindow operations. The end-to-end figures are medians over the
// windows, so a burst of interference from outside the process (a
// stalled disk flush, a descheduled vCPU) moves one window rather than
// the run; a pass shorter than two windows is one window.
type meter struct {
	n                   int           // operations in the pass
	windows             int           // k = max(1, n/opsPerWindow)
	lats                []float64     // per-operation latency, ms
	t0                  time.Time     // start of the open window
	c0                  time.Duration // CPU time at the start of the open window
	p50, p90, rate, cpu []float64     // per closed window
}

func newMeter(n int) *meter {
	m := &meter{n: n, windows: max(1, n/opsPerWindow)}
	m.t0, m.c0 = time.Now(), cpuTime()
	return m
}

// add records one operation's latency, closing a window at its end.
func (m *meter) add(lat time.Duration) {
	m.lats = append(m.lats, ms(lat))
	w := len(m.p50)
	lo, hi := w*m.n/m.windows, (w+1)*m.n/m.windows
	if len(m.lats) < hi {
		return
	}
	wall, cpu := time.Since(m.t0), cpuTime()-m.c0
	win := m.lats[lo:hi]
	m.p50 = append(m.p50, median(win))
	m.p90 = append(m.p90, quantile(win, 0.9))
	m.rate = append(m.rate, float64(len(win))/wall.Seconds())
	m.cpu = append(m.cpu, ms(cpu)/float64(len(win)))
	m.t0, m.c0 = time.Now(), cpuTime()
}

// report sets the per-operation end-to-end metrics. p90 is printed
// but not reported as a metric: on solve-network, whose pass is one
// window of 100 requests, its spread over ten runs on a shared host
// reached 38% of the median, above the largest bound the benchmark
// format allows (0.25).
func (m *meter) report(rep *report) {
	n := len(m.lats)
	rep.set("p50_ms", median(m.p50), n)
	rep.set("ops_per_s", median(m.rate), n)
	rep.set("cpu_ms_per_op", median(m.cpu), n)
	rep.note("p90_ms %.6f ms (n=%d, not gated)", median(m.p90), n)
	if m.windows > 1 {
		rep.note("per-operation figures: medians over %d windows of %d+ operations", m.windows, m.n/m.windows)
	}
}
