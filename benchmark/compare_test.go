package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeDoc stores a synthetic result document holding one workload.
func writeDoc(t *testing.T, name string, quick bool, failed int, rates, setups []float64, rss float64) string {
	t.Helper()
	r, s := summarise(rates), summarise(setups)
	doc := document{Schema: schemaName, Quick: quick, Workloads: []*workloadResult{{
		Workload: "paper50-spp", Attempted: 20, Failed: failed,
		EndToEnd: map[string]measured{
			"sim_s_per_cpu_s": {Value: r.Median, Unit: "sim_s/cpu_s", Samples: &r},
			"setup_s":         {Value: s.Median, Unit: "s", Samples: &s},
			"peak_rss_mb":     {Value: rss, Unit: "MB"},
		},
	}}}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// verdictsOf runs -compare and returns metric → verdict.
func verdictsOf(t *testing.T, a, b string) (map[string]string, error) {
	t.Helper()
	var out bytes.Buffer
	err := compareFiles(&out, a, b)
	got := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n")[1:] {
		if f := strings.Fields(line); len(f) > 2 {
			got[f[1]] = f[len(f)-1]
		}
	}
	return got, err
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{40, 40.5, 41, 39.5, 40.2}
	base := writeDoc(t, "a.json", false, 0, steady, []float64{0.100, 0.101, 0.099}, 100)

	t.Run("same numbers are unchanged", func(t *testing.T) {
		got, err := verdictsOf(t, base, base)
		if err != nil {
			t.Fatal(err)
		}
		for metric, v := range got {
			if v != "unchanged" {
				t.Errorf("%s: %s, want unchanged", metric, v)
			}
		}
		if len(got) != 3 {
			t.Errorf("verdicts for %d metrics, want 3: %v", len(got), got)
		}
	})

	t.Run("improved and regressed and unchanged", func(t *testing.T) {
		// Rate up by a half with no overlap: improved. Set-up 15 % slower,
		// inside its 25 % bound: unchanged. RSS up by 30 % and 30 MB: regressed.
		b := writeDoc(t, "b.json", false, 0, []float64{60, 61, 59.5, 60.2, 60.8}, []float64{0.115, 0.116, 0.114}, 130)
		got, err := verdictsOf(t, base, b)
		if !errors.Is(err, errRegressed) {
			t.Errorf("err = %v, want errRegressed", err)
		}
		want := map[string]string{"sim_s_per_cpu_s": "improved", "setup_s": "unchanged", "peak_rss_mb": "regressed"}
		for metric, v := range want {
			if got[metric] != v {
				t.Errorf("%s: %s, want %s", metric, got[metric], v)
			}
		}
	})

	t.Run("small set-up times ignore relative noise", func(t *testing.T) {
		a := writeDoc(t, "a.json", false, 0, steady, []float64{0.0010, 0.0011, 0.0010}, 10)
		b := writeDoc(t, "b.json", false, 0, steady, []float64{0.0016, 0.0017, 0.0016}, 12)
		got, err := verdictsOf(t, a, b)
		if err != nil || got["setup_s"] != "unchanged" || got["peak_rss_mb"] != "unchanged" {
			t.Errorf("verdicts %v, err %v: want unchanged below the 20 ms and 4 MB floors", got, err)
		}
	})

	t.Run("slower by more than the bound regresses", func(t *testing.T) {
		b := writeDoc(t, "b.json", false, 0, []float64{30, 30.5, 29.5, 30.2, 30.1}, []float64{0.100, 0.101, 0.099}, 100)
		got, err := verdictsOf(t, base, b)
		if !errors.Is(err, errRegressed) || got["sim_s_per_cpu_s"] != "regressed" {
			t.Errorf("verdicts %v, err %v", got, err)
		}
	})

	t.Run("wide interleaved runs are unresolved", func(t *testing.T) {
		a := writeDoc(t, "a.json", false, 0, []float64{30, 50, 40, 60, 35}, []float64{0.1, 0.1, 0.1}, 100)
		b := writeDoc(t, "b.json", false, 0, []float64{28, 45, 33, 52, 31}, []float64{0.1, 0.1, 0.1}, 100)
		got, err := verdictsOf(t, a, b)
		if err != nil || got["sim_s_per_cpu_s"] != "unresolved" {
			t.Errorf("verdicts %v, err %v", got, err)
		}
	})

	t.Run("more failed operations fail the gate", func(t *testing.T) {
		b := writeDoc(t, "b.json", false, 2, steady, []float64{0.100, 0.101, 0.099}, 100)
		if _, err := verdictsOf(t, base, b); !errors.Is(err, errRegressed) {
			t.Errorf("err = %v, want errRegressed", err)
		}
	})

	t.Run("several documents a side use one median each", func(t *testing.T) {
		var as, bs []string
		for i := 0; i < 4; i++ {
			as = append(as, writeDoc(t, "a.json", false, 0, []float64{40 + float64(i)}, []float64{0.1}, 100))
			bs = append(bs, writeDoc(t, "b.json", false, 0, []float64{50 + float64(i)}, []float64{0.1}, 100))
		}
		got, err := verdictsOf(t, strings.Join(as, ","), strings.Join(bs, ","))
		if err != nil || got["sim_s_per_cpu_s"] != "improved" {
			t.Errorf("verdicts %v, err %v", got, err)
		}
	})

	t.Run("quick documents are refused", func(t *testing.T) {
		q := writeDoc(t, "q.json", true, 0, steady, []float64{0.1}, 100)
		if _, err := verdictsOf(t, base, q); err == nil || !strings.Contains(err.Error(), "quick") {
			t.Errorf("err = %v, want a refusal naming -quick", err)
		}
	})
}
