package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// side is one side of a comparison: one result document, or several from
// repeated runs of the same commit.
type side struct {
	docs []document
}

func loadSide(csv string) (side, error) {
	var s side
	for _, path := range strings.Split(csv, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return s, err
		}
		var d document
		if err := json.Unmarshal(lastLine(data), &d); err != nil {
			// -out files are indented; stdout captures are one line.
			if err := json.Unmarshal(data, &d); err != nil {
				return s, fmt.Errorf("%s: %w", path, err)
			}
		}
		if d.Schema != schemaName {
			return s, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schemaName)
		}
		if d.Quick {
			return s, fmt.Errorf("%s: a -quick run measures nothing and cannot be compared", path)
		}
		s.docs = append(s.docs, d)
	}
	return s, nil
}

// values returns the side's measurements of one metric on one workload: the
// reps of its single document, or one median per document.
func (s side) values(workload, metric string) []float64 {
	var out []float64
	for _, d := range s.docs {
		for _, r := range d.Workloads {
			m, ok := r.EndToEnd[metric]
			if r.Workload != workload || !ok {
				continue
			}
			if len(s.docs) == 1 && m.Samples != nil {
				return m.Samples.Values
			}
			out = append(out, m.Value)
		}
	}
	return out
}

// failedShare is failed over attempted operations of one workload.
func (s side) failedShare(workload string) float64 {
	var failed, attempted int
	for _, d := range s.docs {
		for _, r := range d.Workloads {
			if r.Workload == workload {
				failed += r.Failed
				attempted += r.Attempted
			}
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// verdict judges the change b against the parent a on one metric.
//
//	regressed   the median worsened by more than the bound (and by more than
//	            the metric's absolute floor)
//	improved    every run of b reads better than every run of a
//	unresolved  the runs interleave and either side's quartile spread is wider
//	            than the bound, so the bound cannot be checked
//	unchanged   otherwise
func verdict(def metricDef, a, b samples) (v string, worse float64) {
	sign := 1.0 // positive worse = b is worse than a
	if def.Better == "higher" {
		sign = -1
	}
	worse = sign * (b.Median - a.Median) / a.Median
	interleave := a.Min <= b.Max && b.Min <= a.Max
	noisy := a.spread() > def.Bound || b.spread() > def.Bound
	switch {
	case interleave && noisy:
		return "unresolved", worse
	case worse > def.Bound && sign*(b.Median-a.Median) > def.absFloor:
		return "regressed", worse
	case !interleave && worse < 0:
		return "improved", worse
	}
	return "unchanged", worse
}

// compareFiles prints the verdict table of b against a and returns
// errRegressed when any pair regressed or b failed a larger share of its
// operations.
func compareFiles(w io.Writer, aCSV, bCSV string) error {
	a, err := loadSide(aCSV)
	if err != nil {
		return err
	}
	b, err := loadSide(bCSV)
	if err != nil {
		return err
	}
	bad := false
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1 q3] (min max) n\tB median [q1 q3] (min max) n\tchange vs A\tbound\tverdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			av, bv := a.values(wl.name, def.Name), b.values(wl.name, def.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			sa, sb := summarise(av), summarise(bv)
			v, worse := verdict(def, sa, sb)
			bad = bad || v == "regressed"
			direction := "worse"
			if worse < 0 {
				direction = "better"
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%s\t%s\t%+.1f %% of %.4g (%s)\t%.0f %%\t%s\n",
				wl.name, def.Name, def.Unit, describe(sa), describe(sb),
				100*(sb.Median-sa.Median)/sa.Median, sa.Median, direction, 100*def.Bound, v)
		}
		if fa, fb := a.failedShare(wl.name), b.failedShare(wl.name); fb > fa {
			bad = true
			fmt.Fprintf(tw, "%s\tfailed share\t%.3f\t%.3f\t\t\tregressed\n", wl.name, fa, fb)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad {
		return errRegressed
	}
	return nil
}

func describe(s samples) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] (%.4g %.4g) n=%d", s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
}
