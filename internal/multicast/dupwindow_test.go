package multicast

import "testing"

func TestDupWindow(t *testing.T) {
	var w DupWindow
	if w.Seen(5) {
		t.Fatal("first packet reported as duplicate")
	}
	if !w.Seen(5) {
		t.Fatal("repeat not detected")
	}
	if w.Seen(6) || w.Seen(4) {
		t.Fatal("fresh nearby seqs reported as duplicates")
	}
	if !w.Seen(4) {
		t.Fatal("repeat of reordered seq not detected")
	}
	if w.Seen(100) {
		t.Fatal("big jump forward reported as duplicate")
	}
	if !w.Seen(5) {
		t.Fatal("seq far behind the window must be treated as duplicate")
	}
	if w.Seen(99) {
		t.Fatal("seq just inside the window reported as duplicate")
	}
	if !w.Seen(99) {
		t.Fatal("repeat inside window not detected")
	}
}

func TestDupWindowShiftBeyond64(t *testing.T) {
	var w DupWindow
	w.Seen(0)
	if w.Seen(64) {
		t.Fatal("seq 64 is new")
	}
	// seq 0 is now exactly 64 behind: outside the window, counts duplicate.
	if !w.Seen(0) {
		t.Fatal("seq aged out of window must count as duplicate")
	}
	if w.Seen(63) {
		t.Fatal("seq 63 is inside the window and unseen")
	}
}
