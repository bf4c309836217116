package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed step of the benchmark driver itself: the calls it makes
// into the program, not anything inside the program.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = root
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	StartS   float64 `json:"start_s"` // since the log was created
	EndS     float64 `json:"end_s"`
}

// spanLog keeps the driver's spans in memory until the run ends.
type spanLog struct {
	workload string
	t0       time.Time
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id (ids start at 1).
func (l *spanLog) begin(name string, parent int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Workload: l.workload, Name: name, StartS: time.Since(l.t0).Seconds()})
	return id
}

func (l *spanLog) end(id int) {
	l.spans[id-1].EndS = time.Since(l.t0).Seconds()
}

// write stores the spans as dir/spans-<workload>.json and returns the path.
func (l *spanLog) write(dir string) (string, error) {
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+l.workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
