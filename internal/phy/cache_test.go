package phy

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/packet"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
)

// TestRecordLayout pins the size of the two per-edge records and that neither
// holds a pointer. A metro-1k run keeps over half a million links and fills
// hundreds of arrival slots per frame: every 8 bytes of link is ≈ 4.5 MB of
// heap, and a pointer anywhere in either makes the collector scan the lists
// and puts a write barrier on every store of the fan-out and the delivery. A
// transmitter's cache slot holds one slice, its links: an array kept beside
// them costs its element size again per candidate.
func TestRecordLayout(t *testing.T) {
	if n := len(slicesIn(reflect.ValueOf(candidates{}))); n != 1 {
		t.Errorf("candidates holds %d slices, want 1: whatever a list needs per candidate belongs in link", n)
	}
	for _, tc := range []struct {
		name string
		typ  reflect.Type
		want uintptr
	}{
		{"link", reflect.TypeOf(link{}), 16},
		// A float64 is 4-byte aligned where a word is 32 bits.
		{"arrival", reflect.TypeOf(arrival{}), map[int]uintptr{32: 20, 64: 24}[strconv.IntSize]},
	} {
		if size := tc.typ.Size(); size != tc.want {
			t.Errorf("%s is %d bytes, want %d: it is held once per candidate link (or arrival slot) of every "+
				"transmitter, so a wider field or a new one re-inflates the heap of a metro run", tc.name, size, tc.want)
		}
		if path := pointerIn(tc.typ, tc.name); path != "" {
			t.Errorf("%s holds a pointer at %s: the record must stay pointer-free so its arrays are never "+
				"scanned by the collector and its stores need no write barrier", tc.name, path)
		}
	}
}

// pointerIn returns the path of the first field of typ that is or contains a
// pointer (pointer, slice, map, interface, func, chan, string), or "".
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.Func, reflect.Chan, reflect.String:
		return fmt.Sprintf("%s (%s)", path, typ.Kind())
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestLinkDelaysExact requires every candidate of every metro-1k list to hold
// exactly the propagation delay of its distance: the int32 nanoseconds lose
// nothing for any pair the cell index admits.
func TestLinkDelaysExact(t *testing.T) {
	medium := metro1k(propagation.NoFading{})
	n := 0
	for _, src := range medium.radios {
		for _, l := range medium.linksFrom(src).links {
			want := propagation.Delay(src.Pos.Distance(medium.radios[l.rx].Pos))
			if got := time.Duration(l.propDelay); got != want {
				t.Fatalf("radio %d → %d: link delay %v, want %v", src.index, l.rx, got, want)
			}
			n++
		}
	}
	if n < 100000 {
		t.Fatalf("only %d candidates across the metro-1k lists; the check is thin", n)
	}
}

// TestBruteDelayOverflowPanics: a brute-force list (an oracle makes every radio
// a candidate, however far) across a pair whose delay does not fit a link's
// int32 nanoseconds must panic naming both radios rather than wrap.
func TestBruteDelayOverflowPanics(t *testing.T) {
	medium := NewMedium(sim.NewEngine(1), propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
	a := medium.AttachRadio(17, geom.Point{})
	medium.AttachRadio(42, geom.Point{X: 7e8}) // 2.33 s of flight
	medium.SetLinkFunc(func(_, _ packet.NodeID, _ time.Duration, _ *sim.RNG) float64 { return 1 })
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "radio 17") || !strings.Contains(msg, "radio 42") {
			t.Fatalf("panic = %q, want one naming radio 17 and radio 42", msg)
		}
	}()
	medium.linksFrom(a)
}

// slicesIn returns the slice-typed fields of the struct v.
func slicesIn(v reflect.Value) []reflect.Value {
	var out []reflect.Value
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			out = append(out, f)
		}
	}
	return out
}

// TestLinkCacheBytesPerCandidate bounds the memory the link cache keeps per
// candidate on the metro-1k placement with every list built: the capacity of
// every slice the cache holds — each transmitter's slot and the slices in it,
// and the medium's build scratch — times its element size, over the number of
// candidates. It counts capacities, not the runtime's heap figures, so it reads
// the same on every run. A 16-byte link plus what the allocator rounds up
// stays under 17.5; an array beside the links, such as a 4-byte delay-order
// permutation, does not.
func TestLinkCacheBytesPerCandidate(t *testing.T) {
	medium := metro1k(propagation.NoFading{})
	bytes := func(v reflect.Value) int { return v.Cap() * int(v.Type().Elem().Size()) }
	total := bytes(reflect.ValueOf(medium.links)) + bytes(reflect.ValueOf(medium.linkScratch))
	for _, s := range medium.orderScratch {
		total += bytes(reflect.ValueOf(s))
	}
	candidates := 0
	for i := range medium.links {
		for _, s := range slicesIn(reflect.ValueOf(medium.links[i])) {
			total += bytes(s)
		}
		candidates += len(medium.links[i].links)
	}
	perCandidate := float64(total) / float64(candidates)
	t.Logf("link cache: %d B over %d candidates, %.2f B per candidate", total, candidates, perCandidate)
	if perCandidate > 17.5 {
		t.Fatalf("the link cache keeps %.2f B per candidate, want at most 17.5", perCandidate)
	}
}

// TestAttachRadioPastMaxRadiosPanics: a link holds a receiver's attach index
// and its rank in 16 bits each, so the radio after the 65 536th must be
// refused, with a message naming the bound, rather than wrap onto radio 0.
func TestAttachRadioPastMaxRadiosPanics(t *testing.T) {
	medium := NewMedium(sim.NewEngine(1), propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
	for i := 0; i < maxRadios; i++ {
		medium.AttachRadio(packet.NodeID(i), geom.Point{X: float64(i)})
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "65536") {
			t.Fatalf("panic = %q, want one naming the bound of 65536 radios", msg)
		}
	}()
	medium.AttachRadio(0, geom.Point{})
}
