package musa

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// runFast runs e on a throwaway client at a fidelity that keeps tests quick.
func runFast(t *testing.T, e Experiment) *Result {
	t.Helper()
	c, err := NewClient(ClientOptions{SampleInstrs: 60000, WarmupInstrs: 200000, Seed: 1, SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Run(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAppLookup(t *testing.T) {
	for _, n := range []string{"hydro", "spmz", "btmz", "spec3d", "lulesh"} {
		if _, err := App(n); err != nil {
			t.Errorf("App(%q): %v", n, err)
		}
	}
	if _, err := App("quake"); err == nil {
		t.Error("unknown app accepted")
	}
	if len(Applications()) != 5 {
		t.Error("wrong application count")
	}
}

func TestDefaultArchValid(t *testing.T) {
	if _, err := DefaultArch().toPoint(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultArch()
	bad.CacheLabel = "huge"
	if _, err := bad.toPoint(); err == nil {
		t.Error("bad cache label accepted")
	}
	bad2 := DefaultArch()
	bad2.CoreType = "quantum"
	if _, err := bad2.toPoint(); err == nil {
		t.Error("bad core type accepted")
	}
}

func TestSimulateNode(t *testing.T) {
	arch := DefaultArch()
	m := runFast(t, Experiment{Kind: KindNode, App: "btmz", Arch: &arch, NoReplay: true}).Measurement
	if m.TimeNs <= 0 || m.Power.Total() <= 0 {
		t.Fatalf("degenerate result: %+v", m)
	}
}

func TestSimulateFullApp(t *testing.T) {
	arch := DefaultArch()
	res := runFast(t, Experiment{Kind: KindFullApp, App: "hydro", Arch: &arch, Ranks: 8}).FullApp
	if res.MakespanNs <= 0 || res.SystemEnergyJ <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestRegionScalingAPI(t *testing.T) {
	app, _ := App("spec3d")
	sp := RegionScaling(app, []int{1, 32, 64})
	if len(sp) != 3 || sp[0] != 1 || sp[2] <= 1 {
		t.Errorf("speedups = %v", sp)
	}
}

func TestFullAppScalingAPI(t *testing.T) {
	res := runFast(t, Experiment{Kind: KindScaling, App: "lulesh", Ranks: 16, CoreCounts: []int{32}}).Scaling
	if len(res) != 1 || res[0].Speedup <= 1 {
		t.Errorf("results = %+v", res)
	}
}

func TestNewApplicationValidates(t *testing.T) {
	app, _ := App("hydro")
	custom := *app
	custom.Name = "myapp"
	got, err := NewApplication(custom)
	if err != nil || got.Name != "myapp" {
		t.Fatalf("NewApplication: %v", err)
	}
	broken := *app
	broken.Regions = nil
	if _, err := NewApplication(broken); err == nil {
		t.Error("invalid application accepted")
	}
}

func TestRunSweepSmall(t *testing.T) {
	d := runFast(t, Experiment{Kind: KindSweep, Apps: []string{"btmz"}, Sample: 40000, Warmup: 120000}).Sweep
	if len(d.Measurements) != 864 {
		t.Fatalf("%d measurements, want 864", len(d.Measurements))
	}
	bars := SpeedupBars(d, FeatFreq, 64)
	if len(bars) == 0 {
		t.Fatal("no frequency bars")
	}
	pb := PowerBars(d, FeatOoO, 64)
	if len(pb) == 0 {
		t.Fatal("no power bars")
	}
	c1, c2, c3 := PowerComponentBars(d, FeatChannels, 64)
	if len(c1) == 0 || len(c2) == 0 || len(c3) == 0 {
		t.Fatal("missing component bars")
	}
	eb := EnergyBars(d, FeatVector, 32)
	if len(eb) == 0 {
		t.Fatal("no energy bars")
	}
	rows := Characterization(d)
	if len(rows) != 2 { // one app, 32c + 64c
		t.Fatalf("characterization rows = %d", len(rows))
	}
	// The multi-scale loop is closed by default: every measurement carries
	// end-to-end cluster metrics at the default rank counts.
	for _, m := range d.Measurements {
		if len(m.Cluster) != len(DefaultReplayRanks()) {
			t.Fatalf("%s: %d cluster entries, want %d", m.Arch.Label(), len(m.Cluster), len(DefaultReplayRanks()))
		}
		if m.EndToEndNs < m.TimeNs || m.ParallelEff <= 0 {
			t.Fatalf("%s: cluster metrics degenerate: e2e=%v time=%v eff=%v",
				m.Arch.Label(), m.EndToEndNs, m.TimeNs, m.ParallelEff)
		}
	}
	for _, r := range rows {
		if r.EndToEndNs <= 0 || r.ParallelEff <= 0 {
			t.Fatalf("characterization row missing cluster metrics: %+v", r)
		}
	}
	if _, err := PCA(d, "btmz"); err != nil {
		t.Fatal(err)
	}
	// Fig. 10 draws one PCA table per application the dataset holds; an
	// application without the 64-core, 2 GHz slice is an error naming it.
	fig, err := Figure(d, 10, SimOptions{})
	if err != nil || len(fig.Tables) != 1 || !strings.Contains(fig.Tables[0].Title, "btmz") {
		t.Fatalf("Figure 10 on a btmz-only dataset: %v, %+v", err, fig)
	}
	var no64 Sweep
	for _, m := range d.Measurements {
		if m.Arch.Cores != 64 {
			no64.Measurements = append(no64.Measurements, m)
		}
	}
	if _, err := Figure(&no64, 10, SimOptions{}); err == nil || !strings.Contains(err.Error(), "btmz") {
		t.Fatalf("Figure 10 without the 64-core slice: err = %v, want one naming btmz", err)
	}
	c, err := NewClient(ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run(context.Background(), Experiment{Kind: KindSweep, Apps: []string{"nope"}}); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("sweep over an unknown app: err = %v, want ErrUnknownApp", err)
	}
}

func TestNetworkByName(t *testing.T) {
	for _, name := range NetworkNames() {
		if _, err := NetworkByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := NetworkByName("warpdrive"); err == nil {
		t.Error("unknown network name accepted")
	}
}

func TestRankTimelineAPI(t *testing.T) {
	fig, err := RankTimeline("lulesh", 16, NetworkModel{}, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fig.N != 4 || len(fig.Tables) != 1 || len(fig.Tables[0].Rows) != 16 {
		t.Fatalf("timeline figure malformed: %+v", fig)
	}
	if fig.Text == "" {
		t.Fatal("no rendered timeline")
	}
	if _, err := RankTimeline("nope", 16, NetworkModel{}, SimOptions{}); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := RankTimeline("lulesh", 1<<20, NetworkModel{}, SimOptions{}); err == nil {
		t.Error("absurd rank count accepted")
	}
}
