package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"meshcast/internal/packet"
	"meshcast/internal/trace"
)

// writeSpans writes a span file holding three transmitted frames — two
// DATA from node 1, one JOIN_QUERY from node 2 — and node 1's arrival of that
// query, which is no frame of node 1's and must not be listed or counted.
func writeSpans(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := trace.NewSpanJSONLWriter(f)
	for _, s := range []trace.Span{
		{At: time.Second, Kind: trace.SpanMACTx, TraceID: 1<<40 | 1, Node: 1, Peer: 1,
			PktKind: packet.TypeData, Group: 1, Seq: 1},
		{At: 2 * time.Second, Kind: trace.SpanMACTx, TraceID: 2<<40 | 1, Node: 2, Peer: 2,
			PktKind: packet.TypeJoinQuery, Group: 1, Seq: 1},
		{At: 2*time.Second + time.Millisecond, Kind: trace.SpanPhyArrive, TraceID: 2<<40 | 1, Node: 1, Peer: 2,
			PktKind: packet.TypeJoinQuery, Group: 1, Seq: 1},
		{At: 3 * time.Second, Kind: trace.SpanMACTx, TraceID: 1<<40 | 2, Node: 1, Peer: 1,
			PktKind: packet.TypeData, Group: 1, Seq: 2},
	} {
		w.EmitSpan(s)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

func dump(t *testing.T, path string, node int, kind string, stats bool) string {
	t.Helper()
	var sb strings.Builder
	if err := run(&sb, path, node, kind, stats); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestRunPrintsAllFrames(t *testing.T) {
	out := dump(t, writeSpans(t), -1, "", false)
	if n := len(strings.Split(strings.TrimRight(out, "\n"), "\n")); n != 3 {
		t.Fatalf("printed %d lines, want 3:\n%s", n, out)
	}
	// Each line is the span's own text form.
	if !strings.HasPrefix(out, "    1.0000s n1    mac-tx        DATA grp=g1 seq=1 hop=0 from=n1 id=10000000001\n") {
		t.Fatalf("first line is not the mac-tx span's String:\n%s", out)
	}
}

func TestRunNodeFilter(t *testing.T) {
	path := writeSpans(t)
	out := dump(t, path, 1, "", false)
	if n := len(strings.Split(strings.TrimRight(out, "\n"), "\n")); n != 2 {
		t.Fatalf("node 1 filter printed %d lines, want 2:\n%s", n, out)
	}
	if out := dump(t, path, 9, "", false); out != "" {
		t.Fatalf("node 9 filter printed %q, want nothing", out)
	}
}

func TestRunKindFilter(t *testing.T) {
	path := writeSpans(t)
	out := dump(t, path, -1, "JOIN_QUERY", false)
	if lines := strings.Split(strings.TrimRight(out, "\n"), "\n"); len(lines) != 1 || !strings.Contains(lines[0], "JOIN_QUERY") {
		t.Fatalf("kind filter output:\n%s", out)
	}
	// Case-insensitive.
	if got := dump(t, path, -1, "join_query", false); got != out {
		t.Fatalf("case-insensitive filter differs:\n%s\n%s", got, out)
	}
	// Combined with -node: node 2 sent the only query.
	if out := dump(t, path, 1, "JOIN_QUERY", false); out != "" {
		t.Fatalf("node 1 + JOIN_QUERY printed %q, want nothing", out)
	}
}

func TestRunStats(t *testing.T) {
	out := dump(t, writeSpans(t), -1, "", true)
	for _, want := range []string{"3 frames", "DATA", "2", "JOIN_QUERY", "1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
	// Kinds are sorted, so the output is deterministic.
	if strings.Index(out, "DATA") > strings.Index(out, "JOIN_QUERY") {
		t.Fatalf("stats kinds not sorted:\n%s", out)
	}
}

func TestRunUnknownKindFailsFast(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, filepath.Join(t.TempDir(), "never-opened"), -1, "BOGUS", false)
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Fails before touching the span file, and names the valid kinds.
	for _, want := range []string{"BOGUS", "DATA", "JOIN_QUERY", "JOIN_REPLY", "PROBE", "PAIR_SMALL", "PAIR_LARGE"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestRunMissingFile(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, filepath.Join(t.TempDir(), "missing"), -1, "", false); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunRejectsNonCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not a span file"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(&sb, path, -1, "", false); err == nil {
		t.Fatal("file that is not spans accepted")
	}
}

// TestStatsPinned pins the -stats report of a fixed-seed span file,
// `meshsim -metric spp -seconds 20 -seed 1 -spans FILE`.
func TestStatsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs meshsim")
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	cmd := exec.Command("go", "run", "meshcast/cmd/meshsim", "-metric", "spp", "-seconds", "20", "-seed", "1", "-spans", path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("meshsim: %v\n%s", err, out)
	}
	const want = `15978 frames
  DATA         13851
  JOIN_QUERY   1843
  JOIN_REPLY   284
`
	if got := dump(t, path, -1, "", true); got != want {
		t.Fatalf("-stats report moved:\n%s", got)
	}
}

// TestRunRejectsOutOfRangeNode fails before touching the span file on a -node
// that no NodeID holds, naming the flag.
func TestRunRejectsOutOfRangeNode(t *testing.T) {
	path := writeSpans(t)
	for _, tc := range []struct {
		node int
		want string // "" accepts
	}{
		{-1, ""},
		{0, ""},
		{65535, ""},
		{-7, "-node -7 out of range"},
		{-2, "-node -2 out of range"},
		{65536, "-node 65536 out of range"},
		{70000, "-node 70000 out of range"},
	} {
		var sb strings.Builder
		err := run(&sb, path, tc.node, "", true)
		if (err == nil) != (tc.want == "") || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-node %d: error %v, want %q", tc.node, err, tc.want)
		}
		if err != nil && sb.Len() != 0 {
			t.Errorf("-node %d: printed %q before failing", tc.node, sb.String())
		}
	}
	var sb strings.Builder
	if err := run(&sb, filepath.Join(t.TempDir(), "never-opened"), 70000, "", false); err == nil || !strings.Contains(err.Error(), "-node") {
		t.Fatalf("out-of-range node on a missing file: %v, want the -node error first", err)
	}
}
