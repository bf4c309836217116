package soak

import (
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// leakCheck is internal/emu's leak check: test files cannot be imported
// across packages, and a product package for one test helper would be test
// kit compiled into the program. It snapshots the process's goroutines and,
// where /proc/self/fd exists, its open descriptors; the returned function
// waits for both to come back to that baseline and fails the test if they do
// not. Call it once everything the test started has been closed.
func leakCheck(t *testing.T) (settled func()) {
	t.Helper()
	// The first socket a process opens brings the runtime's poller
	// descriptors with it, for good; open one before counting.
	if c, err := net.ListenPacket("udp", "127.0.0.1:0"); err == nil {
		c.Close()
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	return func() {
		t.Helper()
		var g, f int
		deadline := time.Now().Add(3 * time.Second)
		for {
			// Slack of 2 covers runtime goroutines that come and go.
			g, f = runtime.NumGoroutine(), openFDs()
			if g <= goroutines+2 && f <= fds {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("leak: goroutines %d → %d, descriptors %d → %d", goroutines, g, fds, f)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// openFDs counts the process's open descriptors (0 where /proc is absent).
func openFDs() int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(entries)
}
