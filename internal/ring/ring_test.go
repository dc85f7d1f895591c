package ring

import (
	"fmt"
	"testing"
)

func urls(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	return out
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%064x", i*2654435761)
	}
	return out
}

func TestOwnerDeterministicAcrossInstances(t *testing.T) {
	a := New("http://replica-0:8080", urls(5))
	b := New("", urls(5)) // a coordinator sees the same owners
	for _, k := range keys(200) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner(%s) differs across instances: %s vs %s", k, a.Owner(k), b.Owner(k))
		}
	}
}

func TestOwnerDistributionRoughlyUniform(t *testing.T) {
	r := New("", urls(4))
	count := map[string]int{}
	const n = 4000
	for _, k := range keys(n) {
		count[r.Owner(k)]++
	}
	if len(count) != 4 {
		t.Fatalf("keys landed on %d of 4 members: %v", len(count), count)
	}
	for m, c := range count {
		// Each member should take ~25%; 15-35% tolerates hash variance at
		// this sample size while catching any systematic skew.
		if c < n*15/100 || c > n*35/100 {
			t.Errorf("member %s owns %d of %d keys (want ~%d)", m, c, n, n/4)
		}
	}
}

// TestMinimalRemapOnMembershipChange is the rendezvous property: removing
// one member remaps only the keys it owned, everything else keeps its
// owner.
func TestMinimalRemapOnMembershipChange(t *testing.T) {
	full := New("", urls(5))
	smaller := New("", urls(5)[:4]) // replica-4 removed
	moved := 0
	for _, k := range keys(1000) {
		before, after := full.Owner(k), smaller.Owner(k)
		if before == "http://replica-4:8080" {
			if after == before {
				t.Fatalf("key %s still owned by removed member", k)
			}
			continue
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed member changed owner", moved)
	}
}

func TestHealthDemotesOwner(t *testing.T) {
	r := New("", urls(3))
	k := keys(1)[0]
	owner := r.Owner(k)
	order := r.Order(k)
	if order[0] != owner {
		t.Fatalf("Order[0] = %s, Owner = %s", order[0], owner)
	}
	r.SetState(owner, Down)
	if got := r.Owner(k); got == owner {
		t.Fatalf("down member %s still owns %s", owner, k)
	} else if got != order[1] {
		t.Fatalf("fallback owner = %s, want next-in-order %s", got, order[1])
	}
	// Overloaded members sink below Ok but above Draining and Down.
	r.SetState(owner, Ok)
	r.SetState(order[1], Overloaded)
	r.SetState(order[2], Draining)
	wantTail := []string{order[1], order[2]}
	gotOrder := r.Order(k)
	if gotOrder[0] != owner || gotOrder[1] != wantTail[0] || gotOrder[2] != wantTail[1] {
		t.Fatalf("state-ranked order = %v, want [%s %s %s]", gotOrder, owner, wantTail[0], wantTail[1])
	}
	// Recovery restores the original rendezvous order.
	r.SetState(order[1], Ok)
	r.SetState(order[2], Ok)
	if got := r.Owner(k); got != owner {
		t.Fatalf("owner after recovery = %s, want %s", got, owner)
	}
}

func TestSetMembersKeepsStates(t *testing.T) {
	r := New("", urls(3))
	r.SetState("http://replica-1:8080", Down)
	r.SetMembers(append(urls(3), "http://replica-9:8080"))
	if got := r.StateOf("http://replica-1:8080"); got != Down {
		t.Errorf("retained member state = %v, want Down", got)
	}
	if got := r.StateOf("http://replica-9:8080"); got != Ok {
		t.Errorf("new member state = %v, want Ok", got)
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4", r.Len())
	}
	// A state report for a removed member must not resurrect it.
	r.SetMembers(urls(2))
	r.SetState("http://replica-2:8080", Ok)
	if r.Len() != 2 {
		t.Errorf("Len after shrink = %d, want 2", r.Len())
	}
	if got := r.StateOf("http://replica-2:8080"); got != Down {
		t.Errorf("non-member state = %v, want Down", got)
	}
}

func TestNormalizeAndDedup(t *testing.T) {
	r := New("http://a:1/", []string{"http://a:1", "http://a:1/", " http://b:2/ ", ""})
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (deduped, empties dropped)", r.Len())
	}
	if r.Self() != "http://a:1" {
		t.Errorf("Self = %q, want normalized http://a:1", r.Self())
	}
}

func TestEmptyRing(t *testing.T) {
	r := New("", nil)
	if got := r.Owner("k"); got != "" {
		t.Errorf("Owner on empty ring = %q, want \"\"", got)
	}
	if got := len(r.Order("k")); got != 0 {
		t.Errorf("Order on empty ring has %d entries", got)
	}
}

func TestStateRoundTrip(t *testing.T) {
	for _, s := range []State{Ok, Overloaded, Draining, Down} {
		got, err := ParseState(s.String())
		if err != nil || got != s {
			t.Errorf("ParseState(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseState("nope"); err == nil {
		t.Error("ParseState accepted garbage")
	}
}
