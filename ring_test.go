package musa

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"musa/internal/apps"
	"musa/internal/dse"
	"musa/internal/store"
)

// TestPlacementAgreesWithFleet pins the one placement the serve tier
// shares: a /simulate of any point of the 360-point slice is routed by the
// key a fleet sweep places that point's annotation group by, whichever of
// the group's points the key is derived from, so a group's requests,
// shards and artifacts meet on one replica.
func TestPlacementAgreesWithFleet(t *testing.T) {
	c, err := NewClient(ClientOptions{NoArtifacts: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exp := reducedSweepExperimentT(t)
	exp.Apps = nil
	for _, p := range apps.All() {
		exp.Apps = append(exp.Apps, p.Name)
	}
	ne, err := c.fill(exp).normalize(c.knowsApp)
	if err != nil {
		t.Fatal(err)
	}
	grid := tableIGrid()
	points := 0
	for _, app := range ne.Apps {
		first := map[dse.AnnGroup]dse.ArchPoint{}
		for _, i := range ne.PointIndices {
			g := grid[i].AnnGroup()
			if _, ok := first[g]; !ok {
				first[g] = grid[i]
			}
			want := c.groupKey(ne, app, first[g])
			got, err := c.RouteKey(Experiment{Kind: KindNode, App: app, PointIndex: &i,
				Sample: exp.Sample, Warmup: exp.Warmup, Seed: exp.Seed, ReplayRanks: exp.ReplayRanks})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s point %d routes by %s, its group is placed by %s", app, i, got, want)
			}
			if own := c.groupKey(ne, app, grid[i]); own != want {
				t.Fatalf("%s point %d: its group's key depends on the point it is derived from", app, i)
			}
			points++
		}
	}
	if points != 360 {
		t.Fatalf("%d points checked, want the 360-point slice", points)
	}
}

// TestRelayedReplyRoundTrips pins the property a ring replica's kept reply
// rests on: the measurement decoded from a relayed reply re-encodes to the
// owner's bytes, so the replica that keeps it answers later requests with
// what the owner would have sent. It is encoding/json's float round trip,
// checked on every measurement of a real sweep rather than assumed.
func TestRelayedReplyRoundTrips(t *testing.T) {
	exp := reducedSweepExperimentT(t)
	exp.Sample, exp.Warmup = 20000, 40000
	c, err := NewClient(ClientOptions{NoArtifacts: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Run(context.Background(), exp)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Sweep.Measurements); n != len(exp.PointIndices) {
		t.Fatalf("%d measurements, want %d", n, len(exp.PointIndices))
	}
	for _, m := range res.Sweep.Measurements {
		want, err := store.ReplyForm(m)
		if err != nil {
			t.Fatal(err)
		}
		var back Measurement
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatal(err)
		}
		got, err := store.ReplyForm(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s at %s does not round-trip:\n%s\nre-encodes to\n%s", m.App, m.Arch.Label(), want, got)
		}
	}
}
