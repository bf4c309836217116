package ctlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"meshcast/internal/emu"
)

// fakeController records mutations and serves canned state, with a
// settable health verdict to exercise admission control.
type fakeController struct {
	mu       sync.Mutex
	degraded bool
	kills    []int
	restarts []int
	impairs  []ImpairRequest
	parts    []PartitionRequest
	scripts  []ScriptRequest

	stats Stats
}

func (f *fakeController) setDegraded(d bool) {
	f.mu.Lock()
	f.degraded = d
	f.mu.Unlock()
}

func (f *fakeController) Nodes() []NodeState {
	return []NodeState{{ID: 1, Alive: true}, {ID: 2, Alive: false, Kills: 1}}
}

func (f *fakeController) Links() LinksState {
	return LinksState{Default: LinkProfileState{DF: 1}}
}

func (f *fakeController) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *fakeController) Health() Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.degraded {
		return Health{Status: HealthDegraded, Reason: "test degradation"}
	}
	return Health{Status: HealthOK, EtherUp: true, AliveFraction: 1}
}

func (f *fakeController) Impair(req ImpairRequest) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.impairs = append(f.impairs, req)
	return nil
}

func (f *fakeController) Partition(req PartitionRequest) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.parts = append(f.parts, req)
	return nil
}

func (f *fakeController) KillNode(node int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if node == 99 {
		return RequestError{Msg: "unknown node 99"}
	}
	f.kills = append(f.kills, node)
	return nil
}

func (f *fakeController) RestartNode(node int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.restarts = append(f.restarts, node)
	return nil
}

func (f *fakeController) InjectScript(req ScriptRequest) (ScriptResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scripts = append(f.scripts, req)
	return ScriptResult{Events: 2, SpanSeconds: 1.5}, nil
}

func newTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func post(t *testing.T, url, path, body string, header map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestServerReadEndpoints(t *testing.T) {
	ctl := &fakeController{stats: Stats{Expected: 10, Delivered: 8, EtherUp: true}}
	srv := newTestServer(t, NewServer(ctl))

	var nodes []NodeState
	resp, err := http.Get(srv.URL + "/nodes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /nodes = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].ID != 1 || !nodes[0].Alive {
		t.Fatalf("nodes = %+v", nodes)
	}

	var st Stats
	resp2, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Expected != 10 || st.Delivered != 8 {
		t.Fatalf("stats = %+v", st)
	}

	var h Health
	resp3, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("GET /health = %d", resp3.StatusCode)
	}
	if err := json.NewDecoder(resp3.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != HealthOK {
		t.Fatalf("health = %+v", h)
	}
}

func TestServerValidation(t *testing.T) {
	ctl := &fakeController{}
	srv := newTestServer(t, NewServer(ctl))

	cases := []struct {
		path, body, wantErr string
	}{
		{"/links/impair", `{"from":1,"to":2}`, "df is required"},
		{"/links/impair", `{"from":1,"to":2,"df":1.5}`, "out of range"},
		{"/links/impair", `{"from":1,"to":2,"df":0.5,"bogus":1}`, "bad request body"},
		{"/links/impair", `{"from":1,"to":2,"df":0.5,"delayMs":-1}`, "non-negative"},
		{"/links/partition", `{}`, "sideA must be non-empty"},
		{"/links/partition", `{"clear":true,"sideA":[1]}`, "mutually exclusive"},
		{"/faults/script", `{}`, "script is required"},
		{"/nodes/kill", `{"node":99}`, "unknown node 99"},
		{"/nodes/kill", `not json`, "bad request body"},
	}
	for _, tc := range cases {
		resp := post(t, srv.URL, tc.path, tc.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %q = %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
		var ae apiError
		if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ae.Error, tc.wantErr) {
			t.Fatalf("POST %s %q error = %q, want substring %q", tc.path, tc.body, ae.Error, tc.wantErr)
		}
	}
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	if len(ctl.impairs)+len(ctl.parts)+len(ctl.kills)+len(ctl.scripts) != 0 {
		t.Fatal("rejected requests reached the controller")
	}
}

func TestServerBoundedBody(t *testing.T) {
	srv := newTestServer(t, NewServer(&fakeController{}))
	big := `{"from":1,"to":2,"df":0.5,"delayMs":` + strings.Repeat("1", maxBody) + `}`
	resp := post(t, srv.URL, "/links/impair", big, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body = %d, want 400", resp.StatusCode)
	}
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ae.Error, fmt.Sprintf("over %d bytes", maxBody)) {
		t.Fatalf("error = %q", ae.Error)
	}
}

func TestServerIdempotentReplay(t *testing.T) {
	ctl := &fakeController{}
	srv := newTestServer(t, NewServer(ctl))
	hdr := map[string]string{IdempotencyHeader: "tok-1"}

	first := post(t, srv.URL, "/nodes/kill", `{"node":1}`, hdr)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first kill = %d", first.StatusCode)
	}
	if first.Header.Get(ReplayHeader) != "" {
		t.Fatal("first request marked as replay")
	}
	second := post(t, srv.URL, "/nodes/kill", `{"node":1}`, hdr)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("replayed kill = %d", second.StatusCode)
	}
	if second.Header.Get(ReplayHeader) != "true" {
		t.Fatal("second request not served from the replay cache")
	}
	ctl.mu.Lock()
	kills := len(ctl.kills)
	ctl.mu.Unlock()
	if kills != 1 {
		t.Fatalf("controller saw %d kills, want 1 (idempotent)", kills)
	}

	// A different token is a different request.
	third := post(t, srv.URL, "/nodes/kill", `{"node":1}`,
		map[string]string{IdempotencyHeader: "tok-2"})
	if third.Header.Get(ReplayHeader) != "" {
		t.Fatal("fresh token served from cache")
	}
	ctl.mu.Lock()
	kills = len(ctl.kills)
	ctl.mu.Unlock()
	if kills != 2 {
		t.Fatalf("controller saw %d kills, want 2", kills)
	}
}

func TestServerIdempotencyCacheBounded(t *testing.T) {
	s := NewServer(&fakeController{})
	for i := 0; i < idempotencyCapacity+10; i++ {
		s.record(strconv.Itoa(i), http.StatusOK, nil)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, oldest := s.idem["9"]; len(s.idem) != idempotencyCapacity || oldest {
		t.Fatalf("idempotency cache holds %d entries (cap %d), oldest kept: %v", len(s.idem), idempotencyCapacity, oldest)
	}
}

func TestServerAdmissionControl(t *testing.T) {
	ctl := &fakeController{}
	srv := newTestServer(t, NewServer(ctl))
	hdr := map[string]string{IdempotencyHeader: "tok-adm"}

	// A mutation completed while healthy replays even once degraded — the
	// work already happened.
	if resp := post(t, srv.URL, "/nodes/kill", `{"node":2}`, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy kill = %d", resp.StatusCode)
	}
	ctl.setDegraded(true)

	shed := post(t, srv.URL, "/nodes/kill", `{"node":3}`, nil)
	if shed.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded mutation = %d, want 503", shed.StatusCode)
	}
	if got, want := shed.Header.Get("Retry-After"), strconv.Itoa(retryAfterSeconds); got != want {
		t.Fatalf("Retry-After = %q, want %s", got, want)
	}

	replay := post(t, srv.URL, "/nodes/kill", `{"node":2}`, hdr)
	if replay.StatusCode != http.StatusOK || replay.Header.Get(ReplayHeader) != "true" {
		t.Fatalf("degraded replay = %d replay=%q", replay.StatusCode, replay.Header.Get(ReplayHeader))
	}

	// Reads keep working so operators can watch the recovery.
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded GET /stats = %d, want 200", resp.StatusCode)
	}

	ctl.setDegraded(false)
	if resp := post(t, srv.URL, "/nodes/kill", `{"node":3}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered mutation = %d", resp.StatusCode)
	}
}

func TestServerUnsupported(t *testing.T) {
	medium, err := emu.NewMedium("127.0.0.1:0", emu.NewLinkTable(1), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer medium.Stop()
	med := NewMediumController(medium, func() time.Duration { return 0 })
	srv := newTestServer(t, NewServer(med))
	resp := post(t, srv.URL, "/nodes/kill", `{"node":1}`, nil)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("medium kill = %d, want 501", resp.StatusCode)
	}
	resp = post(t, srv.URL, "/faults/script", `{"script":{}}`, nil)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("medium script = %d, want 501", resp.StatusCode)
	}
}

// TestClientReads checks the client's one GET per call: a success body is
// decoded, an error status surfaces as an APIError carrying the server's
// message, and the stream route is gone.
func TestClientReads(t *testing.T) {
	ctl := &fakeController{stats: Stats{Expected: 10, Delivered: 8, NodesAlive: 3}}
	srv := newTestServer(t, NewServer(ctl))
	c := NewClient(srv.URL + "/")
	st, err := c.Stats(context.Background())
	if err != nil || st.Expected != 10 || st.Delivered != 8 || st.NodesAlive != 3 {
		t.Fatalf("Stats() = %+v, %v", st, err)
	}
	if h, err := c.Health(context.Background()); err != nil || h.Status != HealthOK {
		t.Fatalf("Health() = %+v, %v", h, err)
	}

	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "backend gone"})
	}))
	defer failing.Close()
	_, err = NewClient(failing.URL).Stats(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError || ae.Message != "backend gone" {
		t.Fatalf("Stats() against a failing server = %v, want APIError 500 \"backend gone\"", err)
	}

	resp, err := http.Get(srv.URL + "/stats/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /stats/stream = %d, want 404", resp.StatusCode)
	}
}

func TestScriptRequestRoundTrip(t *testing.T) {
	ctl := &fakeController{}
	srv := newTestServer(t, NewServer(ctl))
	body := `{"script":{"outages":[{"node":0,"start_s":1,"duration_s":2}]},"timeScale":0.5,"seed":7}`
	resp := post(t, srv.URL, "/faults/script", body, nil)
	if resp.StatusCode != http.StatusOK {
		b := new(bytes.Buffer)
		b.ReadFrom(resp.Body)
		t.Fatalf("script = %d: %s", resp.StatusCode, b)
	}
	var res ScriptResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Events != 2 {
		t.Fatalf("result = %+v", res)
	}
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	if len(ctl.scripts) != 1 || ctl.scripts[0].TimeScale != 0.5 || ctl.scripts[0].Seed != 7 {
		t.Fatalf("controller saw %+v", ctl.scripts)
	}
}
