package main

import (
	"strings"
	"testing"
)

// TestSelectExperiments resolves -run lists without running any
// experiment: an unknown id, and each id whose run was folded into
// bench/ (bench, obsv, trend), is refused with the known ids named;
// every id in the table is accepted on its own; and an empty list
// selects the full pass, which leaves out the explicit campaign.
func TestSelectExperiments(t *testing.T) {
	for _, run := range []string{"nosuch", "bench", "obsv", "trend", "e1,obsv", "scale, TREND"} {
		sel, err := selectExperiments(run)
		if err == nil {
			t.Errorf("-run %q selected %d experiments, want an error", run, len(sel))
			continue
		}
		if !strings.Contains(err.Error(), "known: e1,") {
			t.Errorf("-run %q: error %q does not name the known ids", run, err)
		}
	}

	kept := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "rtl", "tso", "fault",
		"stride", "policy", "scale", "delta", "campaign"}
	for _, id := range kept {
		sel, err := selectExperiments(" " + strings.ToUpper(id) + " ")
		if err != nil || len(sel) != 1 || sel[0].id != id {
			t.Errorf("-run %s: got %d experiments, err %v; want exactly %s", id, len(sel), err, id)
		}
	}
	if len(experiments) != len(kept) {
		t.Errorf("the table holds %d experiments, the test knows %d", len(experiments), len(kept))
	}

	sel, err := selectExperiments("")
	if err != nil || len(sel) != len(kept)-1 {
		t.Fatalf("empty -run: got %d experiments, err %v; want %d", len(sel), err, len(kept)-1)
	}
	for _, e := range sel {
		if e.id == "campaign" {
			t.Error("empty -run selected the campaign, which runs only when named")
		}
	}
	if sel, err := selectExperiments("delta,scale,delta"); err != nil || len(sel) != 2 || sel[0].id != "scale" {
		t.Errorf("-run delta,scale,delta: got %d experiments, err %v; want scale then delta", len(sel), err)
	}
}
