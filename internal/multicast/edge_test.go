package multicast

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestEdgeTextRoundTrip(t *testing.T) {
	use := map[Edge]uint64{{From: 2, To: 3}: 41, {From: 10, To: 0}: 7, {From: 65535, To: 1}: 1}
	data, err := json.Marshal(use)
	if err != nil {
		t.Fatal(err)
	}
	// Keys sort as text, so the bytes do not depend on map order
	// (encoding/json escapes '>' in strings as \u003e).
	if want := `{"10\u003e0":7,"2\u003e3":41,"65535\u003e1":1}`; string(data) != want {
		t.Fatalf("encoded %s, want %s", data, want)
	}
	var back map[Edge]uint64
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(use, back) {
		t.Fatalf("round trip: %v, want %v", back, use)
	}
	for _, bad := range []string{"", "2", "2-3", ">3", "2>", "a>3", "2>b", "2>3>4", "-1>3", "65536>1"} {
		var e Edge
		if err := e.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) = %v, want an error", bad, e)
		}
	}
}
