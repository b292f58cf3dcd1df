package topology

import (
	"testing"
)

func TestChurnPerturbsDeterministically(t *testing.T) {
	a := mustGen(t, TestParams())
	b := mustGen(t, TestParams())

	sa := Churn(a, 0.3, 7)
	sb := Churn(b, 0.3, 7)
	if sa != sb {
		t.Fatalf("same seed produced different churn: %+v vs %+v", sa, sb)
	}
	if sa.PolicyChanges == 0 && sa.RouterSwaps == 0 && sa.DelayShifts == 0 {
		t.Fatal("churn touched nothing")
	}
	// Same perturbations applied to identical topologies keep them equal.
	for _, asA := range a.ASes() {
		if asB := b.AS(asA.ASN); asA.RouterID != asB.RouterID {
			t.Fatalf("AS %d router IDs diverged", asA.ASN)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("churned topology invalid: %v", err)
	}
}

func TestChurnZeroFrac(t *testing.T) {
	topo := mustGen(t, TestParams())
	before := make([]uint32, topo.NumASes())
	for i, a := range topo.ASes() {
		before[i] = a.RouterID
	}
	st := Churn(topo, 0, 1)
	if st.PolicyChanges != 0 || st.RouterSwaps != 0 || st.DelayShifts != 0 {
		t.Fatalf("zero-frac churn changed things: %+v", st)
	}
	for i, a := range topo.ASes() {
		if a.RouterID != before[i] {
			t.Fatal("router ID changed with zero churn")
		}
	}
}

func TestChurnSkipsOrigin(t *testing.T) {
	topo := mustGen(t, TestParams())
	origin := topo.AddAS("origin", TierOrigin, topo.Tier1s()[0].Coord)
	id := origin.RouterID
	Churn(topo, 1.0, 3)
	if origin.RouterID != id {
		t.Error("churn touched the origin AS")
	}
}

func TestChurnScalesWithFrac(t *testing.T) {
	lo := mustGen(t, TestParams())
	hi := mustGen(t, TestParams())
	stLo := Churn(lo, 0.05, 9)
	stHi := Churn(hi, 0.8, 9)
	if stHi.PolicyChanges <= stLo.PolicyChanges {
		t.Errorf("policy churn did not scale: %d vs %d", stLo.PolicyChanges, stHi.PolicyChanges)
	}
	if stHi.DelayShifts <= stLo.DelayShifts {
		t.Errorf("delay churn did not scale: %d vs %d", stLo.DelayShifts, stHi.DelayShifts)
	}
}
