package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"meshcast/internal/emu"
	"meshcast/internal/testbed"
)

func writeLinks(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "links")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadLinks(t *testing.T) {
	path := writeLinks(t, `
# testbed lossy links
2 5 0.5
5 2 0.5

1 3 0.45
`)
	table := emu.NewLinkTable(1.0)
	if err := loadLinks(table, path); err != nil {
		t.Fatal(err)
	}
	if got := table.DF(2, 5); got != 0.5 {
		t.Fatalf("DF(2,5) = %v", got)
	}
	if got := table.DF(1, 3); got != 0.45 {
		t.Fatalf("DF(1,3) = %v", got)
	}
	if got := table.DF(3, 1); got != 1.0 {
		t.Fatalf("DF(3,1) should default, got %v", got)
	}
}

func TestLoadLinksErrors(t *testing.T) {
	table := emu.NewLinkTable(1)
	for name, content := range map[string]string{
		"wrong fields": "1 2",
		"bad from":     "x 2 0.5",
		"bad to":       "1 y 0.5",
		"bad df":       "1 2 nope",
		"df range":     "1 2 1.5",
	} {
		path := writeLinks(t, content)
		if err := loadLinks(table, path); err == nil {
			t.Fatalf("%s: expected error for %q", name, content)
		}
	}
	if err := loadLinks(table, filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestEventLine(t *testing.T) {
	for ev, want := range map[emu.FleetEvent]string{
		{At: 1500 * time.Millisecond, Kind: "ether-down"}:            "[1.5s] ether-down",
		{At: 502*time.Millisecond + 300, Kind: "node-down", Node: 3}: "[502ms] node-down node=3",
	} {
		if got := eventLine(ev); got != want {
			t.Errorf("eventLine(%+v) = %q, want %q", ev, got, want)
		}
	}
}

func TestPaperTestbedPreload(t *testing.T) {
	// Mirror the -paper-testbed table construction and verify classes.
	links := emu.NewLinkTable(0)
	for _, l := range testbed.Links {
		df := 0.95
		if l.Class == testbed.Lossy {
			df = 0.5
		}
		links.SetSymmetric(l.A, l.B, df)
	}
	if got := links.DF(2, 5); got != 0.5 {
		t.Fatalf("lossy link 2-5 df = %v", got)
	}
	if got := links.DF(2, 10); got != 0.95 {
		t.Fatalf("clean link 2-10 df = %v", got)
	}
	if got := links.DF(5, 7); got != 0 {
		t.Fatalf("non-adjacent pair df = %v, want 0", got)
	}
}
