package main

import (
	"fmt"
	"io"
)

// benchmarkFile is BENCHMARK.json as this package reads it: the
// comparison takes each end-to-end metric's direction and bound from it,
// and a test holds the rest against the code.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// verdict judges a change (b) against its base (a) on one metric, by the
// rule of the choosing-metrics guide: worse when the median moved the
// wrong way by more than the bound; unresolved when either side's
// run-to-run spread is wider than the bound, unless every run of one
// side beats every run of the other; better when the median improved by
// more than the base's own interquartile range; same otherwise.
func verdict(as, bs []float64, bound float64, lowerBetter bool) string {
	a, b := summarize(as), summarize(bs)
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	rel := sign * (b.Median - a.Median) / a.Median // > 0 is worse
	allBetter, allWorse := len(as) > 0 && len(bs) > 0, len(as) > 0 && len(bs) > 0
	for _, x := range as {
		for _, y := range bs {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	switch {
	case a.spread() > bound || b.spread() > bound:
		if allBetter {
			return "better"
		}
		if allWorse && rel > bound {
			return "worse"
		}
		return "unresolved"
	case rel > bound:
		return "worse"
	case rel < 0 && sign*(a.Median-b.Median) > a.Q3-a.Q1:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files and reports whether any verdict was "worse".
func compareFiles(w io.Writer, benchmarkPath, pathA, pathB string) (worse bool, err error) {
	var bf benchmarkFile
	var a, b resultsFile
	for path, v := range map[string]any{benchmarkPath: &bf, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	inB := map[string]*workloadResult{}
	for _, r := range b.Workloads {
		inB[r.Name] = r
	}
	fmt.Fprintf(w, "%-20s %-16s %12s %12s %12s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "B vs A", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := inB[ra.Name]
		if !ok {
			continue
		}
		for _, m := range bf.EndToEnd {
			as, bs := ra.samples(m.Name), rb.samples(m.Name)
			if len(as) == 0 || len(bs) == 0 {
				continue
			}
			sa, sb := summarize(as), summarize(bs)
			v := verdict(as, bs, m.Bound, m.Better != "higher")
			if v == "worse" {
				worse = true
			}
			fmt.Fprintf(w, "%-20s %-16s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+7.2f%% %5.0f%%  %s\n",
				ra.Name, m.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3,
				100*(sb.Median-sa.Median)/sa.Median, 100*m.Bound, v)
		}
	}
	return worse, nil
}
