package musa

import (
	"fmt"
	"strings"

	"musa/internal/core"
	"musa/internal/net"
	"musa/internal/report"
)

// FigureNumbers lists the evaluation figures musa can regenerate: the
// Fig. 1 characterization, the Fig. 4 rank timeline, the Figs. 5-9
// sensitivity studies, the Fig. 10 PCA and the Table II / Fig. 11
// unconventional configurations.
func FigureNumbers() []int { return []int{1, 4, 5, 6, 7, 8, 9, 10, 11} }

// RankTimeline builds the Fig. 4-style cluster view: the application's
// burst trace replayed across the given rank count, with the per-rank
// compute/MPI breakdown and the rendered text Gantt chart (compute '#',
// MPI wait 'w'). A zero network model selects MareNostrumNetwork, and a
// zero seed means seed 1.
func RankTimeline(appName string, ranks int, network NetworkModel, seed uint64) (*report.Figure, error) {
	app, err := App(appName)
	if err != nil {
		return nil, err
	}
	if ranks == 0 {
		ranks = 64 // the paper's Fig. 4 rank count
	}
	if ranks < 2 || ranks > MaxReplayRanks {
		return nil, fmt.Errorf("musa: %d ranks out of range [2, %d]", ranks, MaxReplayRanks)
	}
	if (network == NetworkModel{}) {
		network = MareNostrumNetwork()
	}
	if err := network.Validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = 1
	}
	b := core.SampleBurst(app, ranks, seed)
	res := net.Replay(b, network, nil)
	t := report.NewTable(
		fmt.Sprintf("Figure 4: %s per-rank time breakdown, %d ranks", appName, ranks),
		"rank", "compute ns", "p2p ns", "collective ns", "finish ns")
	for r, rs := range res.Ranks {
		t.AddRow(r, rs.ComputeNs, rs.P2PNs, rs.CollectiveNs, rs.FinishNs)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s rank timeline, %d ranks (compute '#', MPI wait 'w')\n", appName, ranks)
	if err := report.WriteReplayTimeline(&sb, res); err != nil {
		return nil, err
	}
	return &report.Figure{
		N:      4,
		Title:  fmt.Sprintf("%s rank timeline (%d ranks)", appName, ranks),
		Tables: []*report.Table{t},
		Text:   sb.String(),
	}, nil
}

// Figure builds the table data behind one of the figures that aggregate a
// sweep dataset: 1 and 5-10. It is the figure pipeline shared by `musa dse`
// and the /figures/{n} endpoint of `musa serve`, and it simulates nothing.
// Figure 4 is RankTimeline's, and Figure 11 is UnconventionalFigure's,
// rendered from a KindUnconventional result.
func Figure(d *Sweep, n int) (*report.Figure, error) {
	switch n {
	case 1:
		t := report.NewTable("Figure 1: application runtime statistics",
			"app", "cores", "L1 MPKI", "L2 MPKI", "L3 MPKI", "GReq/s",
			"end-to-end ms", "MPI frac", "parallel eff")
		for _, r := range Characterization(d) {
			t.AddRow(r.App, r.Cores, r.L1MPKI, r.L2MPKI, r.L3MPKI, r.GMemReqPerSec/1e9,
				r.EndToEndNs/1e6, r.MPIFraction, r.ParallelEff)
		}
		return &report.Figure{N: n, Title: "application characterization", Tables: []*report.Table{t}}, nil
	case 5, 6, 7, 8, 9:
		var name string
		var feat Feature
		switch n {
		case 5:
			name, feat = "FPU vector width", FeatVector
		case 6:
			name, feat = "cache sizes", FeatCache
		case 7:
			name, feat = "core OoO capabilities", FeatOoO
		case 8:
			name, feat = "memory channels", FeatChannels
		case 9:
			name, feat = "CPU frequency", FeatFreq
		}
		fig := &report.Figure{N: n, Title: name}
		for _, cores := range []int{32, 64} {
			t := report.NewTable(fmt.Sprintf("Figure %d: %s (%d cores x 256 ranks)", n, name, cores),
				"app", "value", "speedup", "sd", "power", "coreL1 W", "L2L3 W", "mem W", "energy")
			perf := SpeedupBars(d, feat, cores)
			pow := PowerBars(d, feat, cores)
			c1, c2, c3 := PowerComponentBars(d, feat, cores)
			en := EnergyBars(d, feat, cores)
			for i := range perf {
				t.AddRow(perf[i].App, perf[i].Value, perf[i].Mean, perf[i].Std,
					pow[i].Mean, c1[i].Mean, c2[i].Mean, c3[i].Mean, en[i].Mean)
			}
			fig.Tables = append(fig.Tables, t)
		}
		return fig, nil
	case 10:
		// One table per application the dataset holds, in Applications()
		// order; an application without the 64-core, 2 GHz slice is an error.
		fig := &report.Figure{N: n, Title: "PCA of the design space"}
		for _, app := range Applications() {
			if len(d.ByApp(app.Name)) == 0 {
				continue
			}
			res, err := PCA(d, app.Name)
			if err != nil {
				return nil, err
			}
			t := report.NewTable(fmt.Sprintf("Figure 10: PCA for %s (PC0 %.1f%%, PC1 %.1f%% of variance)",
				app.Name, res.Explained[0]*100, res.Explained[1]*100),
				"variable", "PC0", "PC1")
			for v, l := range res.Labels {
				t.AddRow(l, res.Loadings[0][v], res.Loadings[1][v])
			}
			fig.Tables = append(fig.Tables, t)
		}
		if len(fig.Tables) == 0 {
			return nil, fmt.Errorf("musa: figure 10: the dataset holds no application")
		}
		return fig, nil
	}
	return nil, fmt.Errorf("musa: figure %d does not aggregate a sweep (have 1, 5-10)", n)
}

// UnconventionalFigure renders Table II / Fig. 11 from the rows of a
// KindUnconventional result.
func UnconventionalFigure(rows []UnconventionalRow) *report.Figure {
	t := report.NewTable("Table II / Figure 11: unconventional configurations",
		"app", "config", "perf", "power", "energy")
	for _, r := range rows {
		energy := fmt.Sprintf("%.3f", r.RelEnergy)
		if !r.EnergyKnown {
			energy = "n/a (no HBM power data)"
		}
		t.AddRow(r.App, r.Label, r.RelPerf, r.RelPower, energy)
	}
	return &report.Figure{N: 11, Title: "unconventional configurations", Tables: []*report.Table{t}}
}
