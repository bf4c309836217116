package ctlplane

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"meshcast/internal/telemetry"
)

// The SSE stream contract for GET /stats/stream:
//
//   - Every event carries a monotone id, an event type ("stats" or
//     "anomaly"), and a JSON StreamEvent body.
//   - "stats" events are emitted once per second with the raw
//     cumulative Stats plus per-window deltas and windowed PDR — the
//     server computes deltas, so a resumed client never double-counts.
//   - "anomaly" events interleave when the window looks wrong (PDR dip
//     against the armed baseline, node-death).
//   - Idle connections receive ": hb" comment lines every 15 s.
//   - A reconnecting client sends Last-Event-ID and receives only events
//     it has not seen, replayed from a bounded server-side ring.
//   - When the subscriber limit is reached the request is shed with
//     503 + Retry-After, which the streaming client honors.

// StreamStats is the payload of a "stats" stream event.
type StreamStats struct {
	// Stats is the raw cumulative snapshot.
	Stats Stats `json:"stats"`
	// DeltaExpected / DeltaDelivered are increments over this window.
	DeltaExpected  uint64 `json:"deltaExpected"`
	DeltaDelivered uint64 `json:"deltaDelivered"`
	// PDR is the windowed delivery ratio; HasPDR is false on the first
	// window and in windows with no expected deliveries.
	PDR    float64 `json:"pdr"`
	HasPDR bool    `json:"hasPdr"`
}

// StreamEvent is one /stats/stream event body.
type StreamEvent struct {
	// ID is the monotone event id (also the SSE id field).
	ID uint64 `json:"id"`
	// Kind is "stats" or "anomaly" (also the SSE event field).
	Kind string `json:"kind"`
	// Stats is set on "stats" events.
	Stats *StreamStats `json:"stats,omitempty"`
	// Anomaly describes "anomaly" events ("pdr-dip ...", "node-death ...").
	Anomaly string `json:"anomaly,omitempty"`
}

// streamHub samples the controller on a fixed interval while at least one
// subscriber is connected, assigns monotone event ids, retains a bounded
// replay ring for Last-Event-ID resume, and fans events out. Deltas are
// computed here exactly once per window, so reconnecting clients cannot
// observe duplicates. interval and maxClients are streamInterval and
// maxStreamClients; tests in this package shorten them.
type streamHub struct {
	ctl        Controller
	interval   time.Duration
	maxClients int
	done       chan struct{}

	mu      sync.Mutex
	subs    map[chan StreamEvent]struct{}
	ring    []StreamEvent
	lastID  uint64
	prev    *Stats
	dip     telemetry.PDRDipDetector
	stopTck chan struct{} // closed to stop the current producer
}

func newStreamHub(ctl Controller, done chan struct{}) *streamHub {
	return &streamHub{
		ctl:        ctl,
		interval:   streamInterval,
		maxClients: maxStreamClients,
		done:       done,
		subs:       make(map[chan StreamEvent]struct{}),
	}
}

// errStreamBusy sheds subscribers past the hub's limit.
var errStreamBusy = fmt.Errorf("ctlplane: stream subscriber limit reached")

// subscribe registers a new stream consumer and returns its channel plus
// the replayed backlog of events after lastID. Backlog and subsequent
// fan-out are contiguous (both run under the hub lock), so the consumer
// sees every event exactly once.
func (h *streamHub) subscribe(lastID uint64) (chan StreamEvent, []StreamEvent, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) >= h.maxClients {
		return nil, nil, errStreamBusy
	}
	var backlog []StreamEvent
	for _, ev := range h.ring {
		if ev.ID > lastID {
			backlog = append(backlog, ev)
		}
	}
	ch := make(chan StreamEvent, 32)
	h.subs[ch] = struct{}{}
	if len(h.subs) == 1 {
		h.stopTck = make(chan struct{})
		go h.produce(h.stopTck)
	}
	return ch, backlog, nil
}

func (h *streamHub) unsubscribe(ch chan StreamEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[ch]; !ok {
		return
	}
	delete(h.subs, ch)
	if len(h.subs) == 0 && h.stopTck != nil {
		close(h.stopTck)
		h.stopTck = nil
	}
}

// produce ticks until the last subscriber leaves or the server closes.
// While nobody listens no events are produced; the retained prev baseline
// folds the whole idle gap into the first delta after resume.
func (h *streamHub) produce(stop chan struct{}) {
	ticker := time.NewTicker(h.interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-h.done:
			return
		case <-ticker.C:
			h.tick()
		}
	}
}

func (h *streamHub) tick() {
	st := h.ctl.Stats()
	h.mu.Lock()
	defer h.mu.Unlock()
	ss := &StreamStats{Stats: st}
	var anomalies []string
	if h.prev != nil && st.NodesAlive < h.prev.NodesAlive {
		anomalies = append(anomalies,
			fmt.Sprintf("node-death alive %d -> %d", h.prev.NodesAlive, st.NodesAlive))
	}
	var dip bool
	ss.DeltaExpected, ss.DeltaDelivered, ss.PDR, dip = h.dip.Window(st.Expected, st.Delivered)
	ss.HasPDR = ss.DeltaExpected > 0
	if dip {
		anomalies = append(anomalies, fmt.Sprintf("pdr-dip window pdr=%.3f", ss.PDR))
	}
	cp := st
	h.prev = &cp
	h.emit(StreamEvent{Kind: "stats", Stats: ss})
	for _, a := range anomalies {
		h.emit(StreamEvent{Kind: "anomaly", Anomaly: a})
	}
}

// emit assigns the next id, records the event in the replay ring, and
// fans it out. Callers hold h.mu. A subscriber that cannot keep up (full
// channel) is dropped: it reconnects and resumes from its last id.
func (h *streamHub) emit(ev StreamEvent) {
	h.lastID++
	ev.ID = h.lastID
	h.ring = append(h.ring, ev)
	if len(h.ring) > streamReplay {
		h.ring = h.ring[len(h.ring)-streamReplay:]
	}
	for ch := range h.subs {
		select {
		case ch <- ev:
		default:
			delete(h.subs, ch)
			close(ch)
			if len(h.subs) == 0 && h.stopTck != nil {
				close(h.stopTck)
				h.stopTck = nil
			}
		}
	}
}

// handleStream serves GET /stats/stream.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported"})
		return
	}
	var lastID uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if id, err := strconv.ParseUint(v, 10, 64); err == nil {
			lastID = id
		}
	}
	ch, backlog, err := s.stream.subscribe(lastID)
	if err != nil {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		return
	}
	defer s.stream.unsubscribe(ch)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// Reconnect-delay hint for generic SSE consumers; our client treats
	// it like a Retry-After floor.
	fmt.Fprintf(w, "retry: %d\n\n", s.stream.interval.Milliseconds())
	for _, ev := range backlog {
		writeSSE(w, ev)
	}
	fl.Flush()

	hb := time.NewTicker(streamHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case ev, ok := <-ch:
			if !ok {
				return // dropped as a slow consumer; client resumes
			}
			writeSSE(w, ev)
			fl.Flush()
		case <-hb.C:
			fmt.Fprint(w, ": hb\n\n")
			fl.Flush()
		}
	}
}

func writeSSE(w http.ResponseWriter, ev StreamEvent) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Kind, data)
}

// WatchStream consumes GET /stats/stream with automatic reconnection:
// dropped connections retry with capped backoff, Retry-After from a
// shedding server (and the SSE retry field) stretch the wait, and every
// reconnect resumes via Last-Event-ID so no delta window is ever seen
// twice. Events surface as WatchSamples (anomaly events set Anomaly);
// connection failures surface as samples with Err set and the stream
// keeps going, so a watcher rides out a restarting server. The channel
// closes when ctx is done.
func WatchStream(ctx context.Context, c *Client) <-chan WatchSample {
	ch := make(chan WatchSample)
	go func() {
		defer close(ch)
		var lastID uint64
		var haveLast bool
		backoff := c.Backoff
		if backoff <= 0 {
			backoff = 100 * time.Millisecond
		}
		maxBackoff := c.BackoffMax
		if maxBackoff <= 0 {
			maxBackoff = 2 * time.Second
		}
		wait := backoff
		for ctx.Err() == nil {
			hint, err := c.streamOnce(ctx, lastID, haveLast, func(ev StreamEvent) {
				if ev.ID > 0 {
					lastID, haveLast = ev.ID, true
				}
				wait = backoff // healthy connection resets the backoff
				s := WatchSample{T: time.Now(), Anomaly: ev.Anomaly}
				if ev.Stats != nil {
					s.Stats = ev.Stats.Stats
					s.DeltaExpected = ev.Stats.DeltaExpected
					s.DeltaDelivered = ev.Stats.DeltaDelivered
					s.PDR = ev.Stats.PDR
					s.HasPDR = ev.Stats.HasPDR
				}
				select {
				case ch <- s:
				case <-ctx.Done():
				}
			})
			if ctx.Err() != nil {
				return
			}
			if err != nil {
				select {
				case ch <- WatchSample{T: time.Now(), Err: err}:
				case <-ctx.Done():
					return
				}
			}
			if hint > wait {
				wait = hint
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
			if wait *= 2; wait > maxBackoff {
				wait = maxBackoff
			}
		}
	}()
	return ch
}

// streamClient returns an HTTP client suitable for a long-lived SSE
// response: the configured transport, but no overall request timeout
// (c.HTTPClient's 5s deadline would sever the stream mid-flight).
func (c *Client) streamClient() *http.Client {
	cl := &http.Client{}
	if c.HTTPClient != nil {
		cl.Transport = c.HTTPClient.Transport
	}
	return cl
}

// streamOnce runs one /stats/stream connection until it fails or ctx is
// done, invoking onEvent per decoded event. It returns a server-suggested
// minimum reconnect delay (0 when none) and the terminal error.
func (c *Client) streamOnce(ctx context.Context, lastID uint64, haveLast bool, onEvent func(StreamEvent)) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/stats/stream", nil)
	if err != nil {
		return 0, fmt.Errorf("ctlplane: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if haveLast {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := c.streamClient().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var hint time.Duration
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			hint = time.Duration(ra) * time.Second
		}
		msg := fmt.Sprintf("status %d", resp.StatusCode)
		var ae apiError
		if json.NewDecoder(resp.Body).Decode(&ae) == nil && ae.Error != "" {
			msg = ae.Error
		}
		return hint, &APIError{Status: resp.StatusCode, Message: msg}
	}

	var retryHint time.Duration
	var data strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data.Len() > 0 {
				var ev StreamEvent
				if json.Unmarshal([]byte(data.String()), &ev) == nil {
					onEvent(ev)
				}
				data.Reset()
			}
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "retry:"):
			if ms, err := strconv.Atoi(strings.TrimSpace(line[len("retry:"):])); err == nil && ms > 0 {
				retryHint = time.Duration(ms) * time.Millisecond
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(line[len("data:"):]))
		default:
			// id:/event: fields duplicate the JSON body; ignore.
		}
	}
	err = sc.Err()
	if err == nil {
		err = fmt.Errorf("ctlplane: stream closed by server")
	}
	return retryHint, err
}
