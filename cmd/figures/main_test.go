package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// wallClock matches the only text of a figure run that depends on the
// machine: section wall times, and the solver-ablation rows' trailing
// "in <duration>".
var wallClock = regexp.MustCompile(`(?m)( completed in )[^,]+(,)|^(  (?:exhaustive|branch-and-bound) mean cost +[0-9.]+ ms) in \S+$`)

func maskWallClock(s string) string { return wallClock.ReplaceAllString(s, "$1$2$3") }

// TestFiguresPaperPinned regenerates the paper-scale evaluation and requires
// it to match the checked-in figures_paper.txt byte for byte, wall times
// aside: a change that moves any figure, verdict or experiment count fails
// here instead of waiting for someone to rerun cmd/figures. When a change
// moves the science on purpose, regenerate the file with
// `go run ./cmd/figures -scale paper -seed 1 > figures_paper.txt` and say why.
func TestFiguresPaperPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every paper-scale figure (several seconds)")
	}
	want, err := os.ReadFile("../../figures_paper.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, []string{"-scale", "paper", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(maskWallClock(string(want)), "\n")
	gotLines := strings.Split(maskWallClock(got.String()), "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("figures_paper.txt line %d:\n  checked in: %q\n  regenerated: %q", i+1, w, g)
		}
	}
}

func TestMaskWallClock(t *testing.T) {
	for in, want := range map[string]string{
		"[fig4a completed in 284ms, 30 experiments total]":               "[fig4a completed in , 30 experiments total]",
		"  exhaustive mean cost                       203.0 ms in 214ms": "  exhaustive mean cost                       203.0 ms",
		"  branch-and-bound mean cost                 203.0 ms in 1.2s":  "  branch-and-bound mean cost                 203.0 ms",
		"  greedy-by-unicast mean cost                207.3 ms":          "  greedy-by-unicast mean cost                207.3 ms",
	} {
		if got := maskWallClock(in); got != want {
			t.Errorf("maskWallClock(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestFiguresFaults: under -faults the figures run on the faulted campaign
// and end with the one summary line; an unknown scenario is refused by name
// before anything is measured.
func TestFiguresFaults(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, []string{"-only", "fig4b", "-faults", "paper", "-fault-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	out := got.String()
	if !strings.Contains(out, "Figure 4b") {
		t.Errorf("no Figure 4b in output:\n%s", out)
	}
	summary := regexp.MustCompile(`(?m)^faults: scenario "paper" seed 1, [1-9][0-9]* events logged, 0 sites quarantined$`)
	if !summary.MatchString(out) {
		t.Errorf("no faults summary line in output:\n%s", out)
	}

	got.Reset()
	err := run(&got, []string{"-faults", "bogus"})
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("-faults bogus: err = %v, want one naming the scenario", err)
	}
	if got.Len() != 0 {
		t.Errorf("-faults bogus wrote %q", got.String())
	}
}
