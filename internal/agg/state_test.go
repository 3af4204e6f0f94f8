package agg

import (
	"fmt"
	"math/rand"
	"testing"
)

// stateDims is the grouping shape the State tests aggregate over; flat cell
// f of an aggRow is group (f % 8, f / 8).
var stateDims = []int{8, 5}

// feedState aggregates rows into a fresh state of the given form, the way
// the scan kernels do: array cells by flat index, hash cells by the slot
// of their ids.
func feedState(t *testing.T, rows []aggRow, array bool) *State {
	t.Helper()
	if array {
		a, err := NewArrayAgg(stateDims, partialKinds)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			a.AddRow(r.flat)
			for k := range partialKinds {
				a.Update(r.flat, k, r.val)
			}
		}
		return a.State(nil)
	}
	h := NewHashAgg(partialKinds)
	for _, r := range rows {
		s := h.Slot([]int32{r.flat % int32(stateDims[0]), r.flat / int32(stateDims[0])})
		h.AddRow(s)
		for k := range partialKinds {
			h.Update(s, k, r.val)
		}
	}
	return h.State()
}

// groupsOf renders a state's finalized groups keyed by their group ids.
func groupsOf(s *State) map[string]string {
	out := make(map[string]string)
	for ids, vals := range s.Groups {
		out[fmt.Sprint(ids)] = fmt.Sprint(vals)
	}
	return out
}

func sameGroups(t *testing.T, got, want map[string]string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for ids, vals := range want {
		if got[ids] != vals {
			t.Fatalf("%s: group %s = %s, want %s", label, ids, got[ids], vals)
		}
	}
}

// TestStateMergePathsAgree: however the second half of the rows reaches a
// state — merged live, merged as a captured snapshot, or merged as a
// snapshot that crossed the wire — every cell of Sum/Count/Min/Max/Avg
// equals aggregating all rows into one state, on both forms, and the two
// forms agree with each other.
func TestStateMergePathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := genRows(rng, 600, stateDims[0]*stateDims[1])
	a, b := rows[:250], rows[250:]
	var perForm []map[string]string
	for _, array := range []bool{true, false} {
		form := map[bool]string{true: "array", false: "hash"}[array]
		want := groupsOf(feedState(t, rows, array))
		if len(want) == 0 {
			t.Fatal("fixture aggregated no groups")
		}
		perForm = append(perForm, want)

		live := feedState(t, a, array)
		if err := live.Merge(feedState(t, b, array)); err != nil {
			t.Fatalf("%s: Merge: %v", form, err)
		}
		sameGroups(t, groupsOf(live), want, form+" Merge")

		snap := feedState(t, a, array)
		if err := snap.MergePartial(feedState(t, b, array).Capture()); err != nil {
			t.Fatalf("%s: MergePartial: %v", form, err)
		}
		sameGroups(t, groupsOf(snap), want, form+" MergePartial(Capture)")

		wire := feedState(t, a, array)
		if err := wire.MergePartial(roundTrip(t, feedState(t, b, array).Capture())); err != nil {
			t.Fatalf("%s: MergePartial over the wire: %v", form, err)
		}
		sameGroups(t, groupsOf(wire), want, form+" MergePartial(wire round-trip)")
	}
	sameGroups(t, perForm[1], perForm[0], "hash form vs array form")
}

// TestStateFormMismatchIsAnError: a snapshot or a live state of the other
// form must fail the merge, not panic or corrupt the receiver.
func TestStateFormMismatchIsAnError(t *testing.T) {
	rows := genRows(rand.New(rand.NewSource(8)), 50, stateDims[0]*stateDims[1])
	arr, hash := feedState(t, rows, true), feedState(t, rows, false)
	before := groupsOf(feedState(t, rows, true))
	if err := arr.MergePartial(hash.Capture()); err == nil {
		t.Error("hash-form partial merged into an array state")
	}
	if err := hash.MergePartial(arr.Capture()); err == nil {
		t.Error("array-form partial merged into a hash state")
	}
	if err := arr.Merge(hash); err == nil {
		t.Error("hash state merged into an array state")
	}
	if err := hash.Merge(arr); err == nil {
		t.Error("array state merged into a hash state")
	}
	sameGroups(t, groupsOf(arr), before, "array state after rejected merges")
}

// TestStateReleaseReturnsTheArrayOnce: the pool hook sees the array exactly
// once however often Release is called; hash states have nothing to return.
func TestStateReleaseReturnsTheArrayOnce(t *testing.T) {
	a := mustArray(t, 4, partialKinds)
	var returned []*ArrayAgg
	s := a.State(func(x *ArrayAgg) { returned = append(returned, x) })
	s.Release()
	s.Release()
	if len(returned) != 1 || returned[0] != a {
		t.Fatalf("release hook saw %d arrays, want the one array once", len(returned))
	}
	NewHashAgg(partialKinds).State().Release()
}
