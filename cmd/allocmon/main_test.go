package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/buddy"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/offload"
	"repro/internal/telemetry"
)

// newTestMonitor builds a monitor over a small allocator with the
// sampler on and some deterministic traffic already applied.
func newTestMonitor(t *testing.T, ops int) (*monitor, *core.Thread) {
	t.Helper()
	rec := core.NewRecorder(telemetry.Config{SampleRate: 1})
	a := core.New(core.Config{
		Processors:   2,
		MagazineSize: 8,
		Telemetry:    rec,
		HeapConfig:   mem.Config{SegmentWordsLog2: 18, TotalWordsLog2: 28},
	})
	th := a.Thread()
	held := make([]mem.Ptr, 0, ops)
	for i := 0; i < ops; i++ {
		p, err := th.Malloc(uint64(8 + 16*(i%50)))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, p)
	}
	for i, p := range held {
		if i%2 == 0 {
			th.Free(p)
		}
	}
	return newMonitor(rec, a, 16, 4), th
}

func get(t *testing.T, srv *httptest.Server, path string) (string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestEndpointsContentTypes checks every endpoint declares its media
// type explicitly.
func TestEndpointsContentTypes(t *testing.T) {
	m, _ := newTestMonitor(t, 100)
	m.sampleOnce()
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	for path, want := range map[string]string{
		"/":             "text/plain; charset=utf-8",
		"/stats.json":   "application/json",
		"/events":       "application/json",
		"/heap":         "application/json",
		"/census.json":  "application/json",
		"/series.json":  "application/json",
		"/adapt.json":   "application/json",
		"/offload.json": "application/json",
		"/metrics":      census.ContentType,
	} {
		_, ct := get(t, srv, path)
		if ct != want {
			t.Errorf("GET %s: Content-Type = %q, want %q", path, ct, want)
		}
	}
}

// TestMetricsEndpoint: /metrics must serve valid Prometheus text format
// with live census series (fragmentation, ages).
func TestMetricsEndpoint(t *testing.T) {
	m, _ := newTestMonitor(t, 200)
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	body, _ := get(t, srv, "/metrics")
	if err := census.ValidateMetrics([]byte(body)); err != nil {
		t.Fatalf("/metrics invalid: %v", err)
	}
	for _, want := range []string{
		"census_superblocks", "census_internal_frag_ratio",
		"census_external_frag_ratio", "census_live_age_seconds_bucket",
		"census_site_live_bytes", "alloc_ops_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestStreamEndpoint: /stream delivers a series point as an SSE data
// frame with census fields populated.
func TestStreamEndpoint(t *testing.T) {
	m, _ := newTestMonitor(t, 200)
	m.sampleOnce() // Last() exists, sent on connect
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var data string
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			data = strings.TrimPrefix(sc.Text(), "data: ")
			break
		}
	}
	if data == "" {
		t.Fatalf("no SSE data frame: %v", sc.Err())
	}
	var pt struct {
		Seq      uint64             `json:"seq"`
		Snapshot telemetry.Snapshot `json:"snapshot"`
		Census   *census.Census     `json:"census"`
		Delta    telemetry.Snapshot `json:"delta"`
	}
	if err := json.Unmarshal([]byte(data), &pt); err != nil {
		t.Fatalf("bad SSE JSON: %v", err)
	}
	if pt.Snapshot.Mallocs == 0 {
		t.Error("streamed snapshot has no mallocs")
	}
	if pt.Census == nil || pt.Census.Totals.Superblocks == 0 {
		t.Errorf("streamed census empty: %+v", pt.Census)
	}
	if pt.Census != nil && pt.Census.Ages.Count() == 0 {
		t.Error("streamed census has no live-age samples")
	}
}

// TestStatsBaseDelta: ?base=<seq> subtracts a series point, so the
// delta's op counts reflect only traffic after that point.
func TestStatsBaseDelta(t *testing.T) {
	m, th := newTestMonitor(t, 100)
	base := m.sampleOnce()

	const extra = 57
	held := make([]mem.Ptr, 0, extra)
	for i := 0; i < extra; i++ {
		p, err := th.Malloc(32)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, p)
	}
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	body, _ := get(t, srv, fmt.Sprintf("/stats.json?base=%d", base.Seq))
	var delta telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &delta); err != nil {
		t.Fatal(err)
	}
	if delta.Mallocs != extra {
		t.Errorf("delta mallocs = %d, want %d", delta.Mallocs, extra)
	}

	// base=last resolves the newest point.
	body, _ = get(t, srv, "/stats.json?base=last")
	if err := json.Unmarshal([]byte(body), &delta); err != nil {
		t.Fatal(err)
	}
	if delta.Mallocs != extra {
		t.Errorf("base=last delta mallocs = %d, want %d", delta.Mallocs, extra)
	}

	// Bogus bases are a client error.
	for _, bad := range []string{"banana", "999999"} {
		resp, err := srv.Client().Get(srv.URL + "/stats.json?base=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("base=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	for _, p := range held {
		th.Free(p)
	}
}

// TestSeriesEndpoint: /series.json returns the sampled ring with
// per-interval deltas.
func TestSeriesEndpoint(t *testing.T) {
	m, th := newTestMonitor(t, 50)
	m.sampleOnce()
	p, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	th.Free(p)
	m.sampleOnce()
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	body, _ := get(t, srv, "/series.json")
	var pts []telemetry.SeriesPoint
	if err := json.Unmarshal([]byte(body), &pts); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("series has %d points, want 2", len(pts))
	}
	if pts[1].Delta.Mallocs != 1 || pts[1].Delta.Frees != 1 {
		t.Errorf("second point delta = %d mallocs / %d frees, want 1/1",
			pts[1].Delta.Mallocs, pts[1].Delta.Frees)
	}
}

// TestAdaptDisabled: without -adapt, /adapt.json reports enabled=false
// and the dashboard carries no adapt section.
func TestAdaptDisabled(t *testing.T) {
	m, _ := newTestMonitor(t, 50)
	srv := httptest.NewServer(m.mux())
	defer srv.Close()
	body, _ := get(t, srv, "/adapt.json")
	var st struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Error("adapt reported enabled on a static monitor")
	}
	dash, _ := get(t, srv, "/")
	if strings.Contains(dash, "adapt:") {
		t.Error("dashboard shows an adapt section without a controller")
	}
}

// newAdaptMonitor builds a monitor whose allocator has the mutable
// policy surface and a controller with a few deterministic decisions
// already applied (driven via Step, never started).
func newAdaptMonitor(t *testing.T) *monitor {
	t.Helper()
	rec := core.NewRecorder(telemetry.Config{SampleRate: 1})
	a := core.New(core.Config{
		Processors:   2,
		MagazineSize: 8,
		Telemetry:    rec,
		Adapt:        true,
		HeapConfig:   mem.Config{SegmentWordsLog2: 18, TotalWordsLog2: 28},
	})
	th := a.Thread()
	for i := 0; i < 200; i++ {
		p, err := th.Malloc(uint64(8 + 16*(i%50)))
		if err != nil {
			t.Fatal(err)
		}
		th.Free(p)
	}
	ctrl, err := adapt.New(a, adapt.Config{Policy: &adapt.Exerciser{Caps: []int{16, 32}}})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Step()
	ctrl.Step()
	m := newMonitor(rec, a, 16, 4)
	m.ctrl = ctrl
	return m
}

// TestAdaptEndpoints: with a controller attached, /adapt.json exposes
// the knob state and decision log, /metrics appends valid adapt
// families, and the dashboard gains the adapt section.
func TestAdaptEndpoints(t *testing.T) {
	m := newAdaptMonitor(t)
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	body, _ := get(t, srv, "/adapt.json")
	var st struct {
		Enabled      bool             `json:"enabled"`
		Steps        uint64           `json:"steps"`
		Decisions    uint64           `json:"decisions"`
		MagazineCaps []int            `json:"magazineCaps"`
		Log          []adapt.Decision `json:"log"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Steps != 2 || st.Decisions == 0 {
		t.Errorf("adapt state = %+v", st)
	}
	if len(st.MagazineCaps) == 0 || st.MagazineCaps[0] != 32 {
		t.Errorf("magazineCaps = %v, want exerciser's second cap 32", st.MagazineCaps)
	}
	if len(st.Log) == 0 || st.Log[len(st.Log)-1].To != 32 {
		t.Errorf("decision log = %+v", st.Log)
	}

	metrics, _ := get(t, srv, "/metrics")
	if err := census.ValidateMetrics([]byte(metrics)); err != nil {
		t.Fatalf("/metrics with adapt families invalid: %v", err)
	}
	for _, want := range []string{
		"adapt_controller_steps_total 2", "adapt_decisions_total",
		`adapt_magazine_cap{class="0"} 32`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	dash, _ := get(t, srv, "/")
	for _, want := range []string{"adapt: interval=", "magazine caps", "adapt: thread"} {
		if !strings.Contains(dash, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

// TestOffloadDisabled: without -offload, /offload.json reports
// enabled=false and the dashboard carries no offload section.
func TestOffloadDisabled(t *testing.T) {
	m, _ := newTestMonitor(t, 50)
	srv := httptest.NewServer(m.mux())
	defer srv.Close()
	body, _ := get(t, srv, "/offload.json")
	var st struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Error("offload reported enabled on a plain monitor")
	}
	dash, _ := get(t, srv, "/")
	if strings.Contains(dash, "offload:") {
		t.Error("dashboard shows an offload section without an engine")
	}
	metrics, _ := get(t, srv, "/metrics")
	if strings.Contains(metrics, "offload_") {
		t.Error("/metrics exposes offload families without an engine")
	}
}

// newOffloadMonitor builds a monitor whose workload runs through the
// allocation-core offload engine, with some traffic already applied.
func newOffloadMonitor(t *testing.T) *monitor {
	t.Helper()
	rec := core.NewRecorder(telemetry.Config{SampleRate: 1})
	a := core.New(core.Config{
		Processors: 2,
		Telemetry:  rec,
		Offload:    core.OffloadConfig{Cores: 1, Batch: 8},
		HeapConfig: mem.Config{SegmentWordsLog2: 18, TotalWordsLog2: 28},
	})
	eng := offload.New(a)
	w := eng.Worker()
	for i := 0; i < 500; i++ {
		p, err := w.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		w.Free(p)
	}
	t.Cleanup(func() {
		w.Unregister()
		eng.Stop()
	})
	m := newMonitor(rec, a, 16, 4)
	m.eng = eng
	return m
}

// TestOffloadEndpoints: with an engine attached, /offload.json exposes
// the counters, /metrics appends valid offload_* families, and the
// dashboard gains the offload section with the queue depth.
func TestOffloadEndpoints(t *testing.T) {
	m := newOffloadMonitor(t)
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	body, _ := get(t, srv, "/offload.json")
	var st struct {
		Enabled bool `json:"enabled"`
		Cores   int  `json:"cores"`
		Batch   int  `json:"batch"`
		Stats   struct {
			Submits   uint64
			StashHits uint64
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Cores != 1 || st.Batch != 8 {
		t.Errorf("offload state = %+v", st)
	}
	if st.Stats.Submits == 0 || st.Stats.StashHits == 0 {
		t.Errorf("offload counters empty: %+v", st.Stats)
	}

	metrics, _ := get(t, srv, "/metrics")
	if err := census.ValidateMetrics([]byte(metrics)); err != nil {
		t.Fatalf("/metrics with offload families invalid: %v", err)
	}
	for _, want := range []string{
		"offload_submits_total", "offload_stash_hits_total",
		"offload_queue_depth", "offload_live_cores 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	dash, _ := get(t, srv, "/")
	for _, want := range []string{"offload: cores=1", "queue depth=", "stash hit"} {
		if !strings.Contains(dash, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

// TestDashboardCensusSummary: the text dashboard includes the census
// lines.
func TestDashboardCensusSummary(t *testing.T) {
	m, _ := newTestMonitor(t, 100)
	srv := httptest.NewServer(m.mux())
	defer srv.Close()
	body, _ := get(t, srv, "/")
	for _, want := range []string{"census:", "frag: internal"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

// TestBuddyEndpoints: with -buddy attached, /census.json carries the
// buddy order table and /metrics appends valid buddy_* families.
func TestBuddyEndpoints(t *testing.T) {
	m, _ := newTestMonitor(t, 100)
	m.bud = buddy.New(buddy.Config{
		HeapConfig:    mem.Config{SegmentWordsLog2: 14, TotalWordsLog2: 22},
		TreeWordsLog2: 12,
	})
	bt := m.bud.Thread()
	var held []mem.Ptr
	for _, sz := range []uint64{8, 100, 1000, 20000} {
		p, err := bt.Malloc(sz)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, p)
	}
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	body, _ := get(t, srv, "/census.json")
	var c census.Census
	if err := json.Unmarshal([]byte(body), &c); err != nil {
		t.Fatal(err)
	}
	if c.Buddy == nil || len(c.Buddy.Orders) == 0 {
		t.Fatalf("/census.json has no buddy order table: %s", body)
	}
	var used uint64
	for _, o := range c.Buddy.Orders {
		used += o.Used
	}
	if used != uint64(len(held)) {
		t.Fatalf("buddy census counts %d used blocks, want %d", used, len(held))
	}

	metrics, _ := get(t, srv, "/metrics")
	if err := census.ValidateMetrics([]byte(metrics)); err != nil {
		t.Fatalf("/metrics with buddy families invalid: %v", err)
	}
	for _, want := range []string{"buddy_order_blocks", "buddy_external_frag_ratio", "buddy_trees"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	for _, p := range held {
		bt.Free(p)
	}
}
