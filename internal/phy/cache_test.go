package phy

import (
	"fmt"
	"reflect"
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
// and puts a write barrier on every store of the fan-out and the delivery.
func TestRecordLayout(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  reflect.Type
		want uintptr
	}{
		{"link", reflect.TypeOf(link{}), 16},
		{"arrival", reflect.TypeOf(arrival{}), 24},
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
