package ctlplane

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingController serves stats that advance on every snapshot, so each
// stream window has a distinct cumulative Expected value — duplicated
// windows after a resume would show up as repeated values.
type countingController struct {
	fakeController
	expected *atomic.Uint64
}

func (c *countingController) Stats() Stats {
	e := c.expected.Add(5)
	return Stats{Expected: e, Delivered: e * 4 / 5, NodesAlive: 25, NodesTotal: 25, EtherUp: true}
}

// sseEvent is one decoded frame of a raw SSE connection.
type sseEvent struct {
	id    uint64
	event string
	body  StreamEvent
}

// readSSE decodes n events from an open SSE response body.
func readSSE(t *testing.T, r *bufio.Reader, n int) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	var data string
	for len(out) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read after %d events: %v", len(out), err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if data != "" {
				if err := json.Unmarshal([]byte(data), &cur.body); err != nil {
					t.Fatalf("bad event body %q: %v", data, err)
				}
				out = append(out, cur)
				cur, data = sseEvent{}, ""
			}
		case strings.HasPrefix(line, "id:"):
			id, err := strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = id
		case strings.HasPrefix(line, "event:"):
			cur.event = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(line[5:])
		}
	}
	return out
}

func openStream(t *testing.T, base string, lastID uint64) (*http.Response, *bufio.Reader) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/stats/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	return resp, bufio.NewReader(resp.Body)
}

// fastStream shortens s's stream interval so a test sees a window every
// 10 ms instead of every second.
func fastStream(s *Server) *Server {
	s.stream.interval = 10 * time.Millisecond
	return s
}

func TestStreamEventsMonotoneWithServerComputedDeltas(t *testing.T) {
	ctl := &countingController{expected: new(atomic.Uint64)}
	srv := newTestServer(t, fastStream(NewServer(ctl)))

	_, r := openStream(t, srv.URL, 0)
	events := readSSE(t, r, 3)
	for i, ev := range events {
		if want := uint64(i + 1); ev.id != want {
			t.Fatalf("event %d has id %d, want %d", i, ev.id, want)
		}
		if ev.event != "stats" || ev.body.Kind != "stats" || ev.body.Stats == nil {
			t.Fatalf("event %d = %+v, want a stats event", i, ev.body)
		}
	}
	// The server computes deltas: the counting controller advances
	// Expected by 5 per window, and the first window has no baseline.
	if d := events[0].body.Stats.DeltaExpected; d != 0 {
		t.Fatalf("first window delta %d, want 0 (no baseline)", d)
	}
	for _, ev := range events[1:] {
		s := ev.body.Stats
		if s.DeltaExpected != 5 || s.DeltaDelivered != 4 {
			t.Fatalf("window delta %d/%d, want 5/4", s.DeltaDelivered, s.DeltaExpected)
		}
		if !s.HasPDR || s.PDR != 0.8 {
			t.Fatalf("window PDR %v/%v, want 0.8/true", s.PDR, s.HasPDR)
		}
	}
}

func TestStreamLastEventIDResumeSkipsSeenEvents(t *testing.T) {
	ctl := &countingController{expected: new(atomic.Uint64)}
	srv := newTestServer(t, fastStream(NewServer(ctl)))

	resp, r := openStream(t, srv.URL, 0)
	if events := readSSE(t, r, 4); events[3].id != 4 {
		t.Fatalf("4th event id %d, want 4", events[3].id)
	}
	resp.Body.Close()

	// Resume claiming events 1-2 were seen: the replay ring must serve 3
	// and 4 immediately, and nothing before them again.
	_, r2 := openStream(t, srv.URL, 2)
	resumed := readSSE(t, r2, 2)
	if resumed[0].id != 3 || resumed[1].id != 4 {
		t.Fatalf("resumed ids %d, %d; want 3, 4", resumed[0].id, resumed[1].id)
	}
}

func TestStreamShedsOverLimitWithRetryAfter(t *testing.T) {
	ctl := &countingController{expected: new(atomic.Uint64)}
	s := fastStream(NewServer(ctl))
	s.stream.maxClients = 1
	srv := newTestServer(t, s)

	// First subscriber occupies the only slot.
	openStream(t, srv.URL, 0)

	// The second is shed with 503 + Retry-After, and the streaming client
	// surfaces that hint as its minimum reconnect delay.
	c := NewClient(srv.URL)
	hint, err := c.streamOnce(context.Background(), 0, false, func(StreamEvent) {})
	if err == nil {
		t.Fatal("over-limit stream connect succeeded, want 503")
	}
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("over-limit error = %v, want 503 APIError", err)
	}
	if want := retryAfterSeconds * time.Second; hint != want {
		t.Fatalf("Retry-After hint = %v, want %v", hint, want)
	}
}

func TestStreamAnomalyOnNodeDeath(t *testing.T) {
	ctl := &fakeController{stats: Stats{Expected: 10, Delivered: 8, NodesAlive: 25, NodesTotal: 25, EtherUp: true}}
	srv := newTestServer(t, fastStream(NewServer(ctl)))

	_, r := openStream(t, srv.URL, 0)
	readSSE(t, r, 1) // baseline window recorded
	ctl.mu.Lock()
	ctl.stats.NodesAlive = 23
	ctl.mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for {
		evs := readSSE(t, r, 1)
		if evs[0].body.Kind == "anomaly" {
			if !strings.Contains(evs[0].body.Anomaly, "node-death") {
				t.Fatalf("anomaly = %q, want node-death", evs[0].body.Anomaly)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no anomaly event after node death")
		}
	}
}

func TestServerCloseTerminatesStreams(t *testing.T) {
	ctl := &countingController{expected: new(atomic.Uint64)}
	s := fastStream(NewServer(ctl))
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	_, r := openStream(t, srv.URL, 0)
	readSSE(t, r, 1)
	s.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream stayed open after Server.Close")
	}
}

// TestWatchStreamReconnectsAcrossServerRestart restarts the server under a
// live WatchStream client and verifies the client reconnects on its own
// and never replays a delta window: every cumulative Expected value seen
// is strictly increasing, across the restart.
func TestWatchStreamReconnectsAcrossServerRestart(t *testing.T) {
	counter := new(atomic.Uint64)
	serve := func() (*Server, *http.Server, string, chan struct{}) {
		ctl := &countingController{expected: counter}
		s := fastStream(NewServer(ctl))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: s.Handler()}
		done := make(chan struct{})
		go func() { defer close(done); hs.Serve(ln) }()
		return s, hs, ln.Addr().String(), done
	}

	s1, hs1, addr, done1 := serve()
	c := NewClient("http://" + addr)
	c.Backoff = 10 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	samples := WatchStream(ctx, c)

	collect := func(n int) []WatchSample {
		var out []WatchSample
		for s := range samples {
			if s.Err != nil || s.Anomaly != "" {
				continue
			}
			out = append(out, s)
			if len(out) == n {
				return out
			}
		}
		t.Fatalf("stream closed after %d samples, want %d", len(out), n)
		return nil
	}

	first := collect(3)

	// Kill the server mid-stream.
	s1.Close()
	hs1.Close()
	<-done1

	// Bring a fresh server up on the same address; the cumulative counter
	// carries over, like a daemon whose backing fleet kept running.
	var s2 *Server
	var hs2 *http.Server
	for i := 0; ; i++ {
		ctl := &countingController{expected: counter}
		s2 = fastStream(NewServer(ctl))
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			if i > 50 {
				t.Fatalf("relisten on %s: %v", addr, err)
			}
			time.Sleep(20 * time.Millisecond)
			continue
		}
		hs2 = &http.Server{Handler: s2.Handler()}
		go hs2.Serve(ln)
		break
	}
	defer func() {
		s2.Close()
		hs2.Close()
	}()

	second := collect(3)
	cancel()

	all := append(first, second...)
	prev := uint64(0)
	for i, s := range all {
		if s.Stats.Expected <= prev {
			t.Fatalf("sample %d cumulative Expected %d not above previous %d — duplicate window after resume",
				i, s.Stats.Expected, prev)
		}
		prev = s.Stats.Expected
	}
	// The restarted server has no baseline for its first window, so its
	// first delta must be zero rather than double-counting the gap.
	if second[0].DeltaExpected != 0 {
		t.Fatalf("first post-restart delta %d, want 0 (fresh baseline)", second[0].DeltaExpected)
	}
}
