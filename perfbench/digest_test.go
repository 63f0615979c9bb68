package main

import (
	"reflect"
	"testing"
)

func TestDigestRejectsOneByteDifference(t *testing.T) {
	reps := []reportEntry{
		{ID: "fig21", JSON: []byte(`{"id":"fig21","rows":[["Mesh","12.0"]]}`)},
		{ID: "fig26", JSON: []byte(`{"id":"fig26","rows":[["Hybrid","0.0210"]]}`)},
	}
	want := digestReports(reps)
	if got := mismatches(want, digestReports(reps)); len(got) != 0 {
		t.Fatalf("identical reports mismatch: %v", got)
	}
	changed := []reportEntry{reps[0], {ID: "fig26", JSON: []byte(`{"id":"fig26","rows":[["Hybrid","0.0211"]]}`)}}
	got := digestReports(changed)
	if got.All == want.All {
		t.Fatal("the whole-registry digest did not change")
	}
	if m := mismatches(want, got); !reflect.DeepEqual(m, []string{"fig26"}) {
		t.Fatalf("mismatches = %v; want [fig26]", m)
	}
	if m := mismatches(want, digestReports(reps[:1])); !reflect.DeepEqual(m, []string{"fig26"}) {
		t.Fatalf("a missing report: mismatches = %v; want [fig26]", m)
	}
}

func TestPaperCheckerCountsWrongReports(t *testing.T) {
	reps := []reportEntry{{ID: "a", JSON: []byte("1")}, {ID: "b", JSON: []byte("2")}}
	want := digestReports(reps)
	c := &paperChecker{want: want}
	res := &result{}
	c.check([]reportEntry{reps[0], {ID: "b", JSON: []byte("3")}}, nil, res)
	if res.Attempted != 2 || res.Failed != 1 {
		t.Fatalf("attempted %d failed %d; want 2 and 1", res.Attempted, res.Failed)
	}
}

func TestSimSeedCoversTheRecordedRange(t *testing.T) {
	for _, s := range []int64{-17, -1, 0, 1, 15, 16, 1 << 40} {
		if v := simSeed(s); v < 1 || v > simSeeds {
			t.Fatalf("simSeed(%d) = %d; want 1..%d", s, v, simSeeds)
		}
	}
	if simSeed(0) != 1 {
		t.Fatal("seed 0 must be the paper's simulation seed 1")
	}
}

func TestEverySimSeedHasRecordedDigests(t *testing.T) {
	for s := int64(1); s <= simSeeds; s++ {
		if _, err := newPaperChecker(s); err != nil {
			t.Error(err)
		}
		if _, err := newDSEChecker(s); err != nil {
			t.Error(err)
		}
	}
	if _, err := newPaperChecker(simSeeds + 1); err == nil {
		t.Error("a sim seed without a paper-quick digest must be an error")
	}
	if _, err := newDSEChecker(simSeeds + 1); err == nil {
		t.Error("a sim seed without a dse-full digest must be an error")
	}
}
