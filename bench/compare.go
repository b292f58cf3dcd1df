package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles reads two -out files, a (the base: parent commit or first
// run) and b, prints every end-to-end metric × workload they share with b's
// ratio to a, and returns 1 when b is worse than a by more than the metric's
// own bound anywhere, or when either side failed a correctness check.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintf(w, "bench: %v %v\n", errA, errB)
		return 2
	}
	return compare(w, a, b)
}

func readResults(path string) (map[string]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]result
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func compare(w io.Writer, a, b map[string]result) int {
	status := 0
	for _, name := range workloads {
		ra, okA := a[name]
		rb, okB := b[name]
		if !okA || !okB {
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "FAIL %s: failed operations: a %d of %d, b %d of %d\n", name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			status = 1
		}
		for _, d := range endToEnd {
			ma, okA := ra.Metrics[d.Name]
			mb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict, status = "REGRESSION", 1
			}
			fmt.Fprintf(w, "%-10s %-15s %-16s b/a = %.4f (a = %.4f %s, b = %.4f %s), %+.1f%% worse, bound %.0f%%\n",
				verdict, name, d.Name, mb.Value/ma.Value, ma.Value, d.Unit, mb.Value, d.Unit, 100*worse, 100*d.Bound)
		}
	}
	return status
}
