package main

import (
	"testing"
	"time"

	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

func TestParseGroups(t *testing.T) {
	tests := []struct {
		in      string
		want    []packet.GroupID
		wantErr bool
	}{
		{"", nil, false},
		{"1", []packet.GroupID{1}, false},
		{"1,2,3", []packet.GroupID{1, 2, 3}, false},
		{" 4 , 5 ", []packet.GroupID{4, 5}, false},
		{"x", nil, true},
		{"1,,2", nil, true},
		{"70000", nil, true}, // exceeds uint16
	}
	for _, tt := range tests {
		got, err := parseGroups(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Fatalf("parseGroups(%q): expected error", tt.in)
			}
			continue
		}
		if err != nil {
			t.Fatalf("parseGroups(%q): %v", tt.in, err)
		}
		if len(got) != len(tt.want) {
			t.Fatalf("parseGroups(%q) = %v, want %v", tt.in, got, tt.want)
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Fatalf("parseGroups(%q) = %v, want %v", tt.in, got, tt.want)
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(1, "127.0.0.1:1", "bogus", "", "", "", 20, 512, 1, 0, 0); err == nil {
		t.Fatal("bad metric accepted")
	}
	if err := run(1, "127.0.0.1:1", "spp", "bogus", "", "", 20, 512, 1, 0, 0); err == nil {
		t.Fatal("bad protocol accepted")
	}
	if err := run(1, "127.0.0.1:1", "spp", "", "zz", "", 20, 512, 1, 0, 0); err == nil {
		t.Fatal("bad join groups accepted")
	}
	if err := run(1, "127.0.0.1:1", "spp", "", "", "", 0, 512, 1, 0, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
}

// TestWatchdogVirtualTime steps the watchdog's engine by hand: polls land
// every window/4, a daemon seen dead for a whole window fails once, and one
// poll that finds it alive starts the count afresh.
func TestWatchdogVirtualTime(t *testing.T) {
	const ms = time.Millisecond
	engine := sim.NewEngine(1)
	alive := true
	var failed []time.Duration
	armWatchdog(engine, 400*ms, func(window time.Duration) bool {
		if window != 400*ms {
			t.Errorf("alive asked about a %v window, want 400ms", window)
		}
		return alive
	}, func() { failed = append(failed, engine.Now()) })

	engine.At(1010*ms, func() { alive = false }) // first seen dead at the 1100 ms poll
	engine.At(1450*ms, func() { alive = true })  // alive again at the 1500 ms poll, which would have failed it
	engine.At(2010*ms, func() { alive = false }) // seen dead at 2100 ms, for good
	engine.Run(2400 * ms)
	if len(failed) != 0 {
		t.Fatalf("failed at %v: the daemon was alive again before a whole window had passed", failed)
	}
	engine.Run(10 * time.Second)
	if len(failed) != 1 || failed[0] != 2500*ms {
		t.Fatalf("failed at %v, want once at 2.5s (dead from the 2.1s poll for 400ms)", failed)
	}
}

// TestRunWatchdogFiresWithoutEther points the daemon at a dead ether: it can
// never register, so the watchdog must take the process down with an error
// before the -seconds deadline would.
func TestRunWatchdogFiresWithoutEther(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test (~1s)")
	}
	err := run(1, "127.0.0.1:1", "spp", "", "", "", 20, 512, 10, 0, 400*time.Millisecond)
	if err == nil {
		t.Fatal("watchdog did not fire against a dead ether")
	}
}
