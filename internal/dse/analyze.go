package dse

import (
	"fmt"

	"musa/internal/stats"
)

// Feature identifies one swept architectural dimension.
type Feature int

// The five swept features of §V-B.
const (
	FeatVector Feature = iota
	FeatCache
	FeatOoO
	FeatChannels
	FeatFreq
)

func (f Feature) String() string {
	switch f {
	case FeatVector:
		return "vector"
	case FeatCache:
		return "cache"
	case FeatOoO:
		return "ooo"
	case FeatChannels:
		return "channels"
	case FeatFreq:
		return "freq"
	}
	return "?"
}

// Values returns the sweep values of the feature, baseline first, matching
// the paper's normalization baselines (128-bit, 32M:256K, aggressive OoO,
// 4 channels, 1.5 GHz).
func (f Feature) Values() []string {
	switch f {
	case FeatVector:
		return []string{"128", "256", "512"}
	case FeatCache:
		return []string{"32M:256K", "64M:512K", "96M:1M"}
	case FeatOoO:
		return []string{"aggressive", "lowend", "high", "medium"}
	case FeatChannels:
		return []string{"4chDDR4", "8chDDR4"}
	case FeatFreq:
		return []string{"1.5", "2.0", "2.5", "3.0"}
	}
	return nil
}

// Baseline returns the normalization baseline value.
func (f Feature) Baseline() string { return f.Values()[0] }

// valueOf extracts the feature value label of a configuration.
func (f Feature) valueOf(a ArchPoint) string {
	switch f {
	case FeatVector:
		return fmt.Sprintf("%d", a.VectorBits)
	case FeatCache:
		return a.Cache.Label
	case FeatOoO:
		return a.Core.Name
	case FeatChannels:
		return fmt.Sprintf("%dch%s", a.Channels, a.Mem)
	case FeatFreq:
		return fmt.Sprintf("%.1f", a.FreqGHz)
	}
	return ""
}

// keyExcluding renders a configuration identity with the feature dimension
// masked, used to pair each configuration with its baseline partner.
func (f Feature) keyExcluding(a ArchPoint) string {
	masked := a
	switch f {
	case FeatVector:
		masked.VectorBits = 0
	case FeatCache:
		masked.Cache = CacheCfg{}
	case FeatOoO:
		masked.Core.Name = ""
	case FeatChannels:
		masked.Channels = 0
		masked.Mem = DDR4
	case FeatFreq:
		masked.FreqGHz = 0
	}
	return fmt.Sprintf("%d|%s|%.1f|%d|%s|%d|%d",
		masked.Cores, masked.Core.Name, masked.FreqGHz, masked.VectorBits,
		masked.Cache.Label, masked.Channels, masked.Mem)
}

// Metric extracts the quantity being normalized from a measurement.
type Metric func(Measurement) float64

// Standard metrics.
func MetricTime(m Measurement) float64    { return m.TimeNs }
func MetricPower(m Measurement) float64   { return m.Power.Total() }
func MetricEnergy(m Measurement) float64  { return m.EnergyJ }
func MetricCoreL1W(m Measurement) float64 { return m.Power.CoreL1 }
func MetricL2L3W(m Measurement) float64   { return m.Power.L2L3 }
func MetricMemW(m Measurement) float64    { return m.Power.Memory }

// Bar is one aggregated bar of a paper figure: the mean (and standard
// deviation) of the per-pair ratios for one (application, feature value).
type Bar struct {
	App   string
	Value string
	Mean  float64
	Std   float64
	N     int
}

// NormalizedBars implements the paper's quantification methodology (§V-B):
// every configuration with the given feature value is normalized against the
// configuration sharing all other parameters but the baseline feature value,
// and the per-pair ratios are averaged. invert=true turns time ratios into
// speedups (baseline/value); invert=false reports value/baseline (power,
// energy). coresFilter restricts to one socket width (32 or 64; 0 = all).
func NormalizedBars(ms []Measurement, f Feature, metric Metric, invert bool, coresFilter int) []Bar {
	// Index baseline partners.
	base := map[string]Measurement{}
	for _, m := range ms {
		if coresFilter > 0 && m.Arch.Cores != coresFilter {
			continue
		}
		if f.valueOf(m.Arch) == f.Baseline() {
			base[m.App+"|"+f.keyExcluding(m.Arch)] = m
		}
	}

	ratios := map[string]map[string][]float64{} // app -> value -> ratios
	for _, m := range ms {
		if coresFilter > 0 && m.Arch.Cores != coresFilter {
			continue
		}
		v := f.valueOf(m.Arch)
		b, ok := base[m.App+"|"+f.keyExcluding(m.Arch)]
		if !ok {
			continue
		}
		bm, vm := metric(b), metric(m)
		if bm <= 0 || vm <= 0 {
			continue
		}
		r := vm / bm
		if invert {
			r = bm / vm
		}
		if ratios[m.App] == nil {
			ratios[m.App] = map[string][]float64{}
		}
		ratios[m.App][v] = append(ratios[m.App][v], r)
	}

	var out []Bar
	for _, app := range appOrder(ms) {
		for _, v := range f.Values() {
			rs := ratios[app][v]
			if len(rs) == 0 {
				continue
			}
			s := stats.Summarize(rs)
			out = append(out, Bar{App: app, Value: v, Mean: s.Mean, Std: s.StdDev, N: s.N})
		}
	}
	return out
}

// appOrder returns the distinct applications in the paper's plotting order.
func appOrder(ms []Measurement) []string {
	order := []string{"hydro", "spmz", "btmz", "spec3d", "lulesh"}
	present := map[string]bool{}
	for _, m := range ms {
		present[m.App] = true
	}
	var out []string
	for _, a := range order {
		if present[a] {
			out = append(out, a)
		}
	}
	for a := range present {
		found := false
		for _, o := range out {
			if o == a {
				found = true
			}
		}
		if !found {
			out = append(out, a)
		}
	}
	return out
}

// Fig1Row is one application's characterization row (Fig. 1), extended
// with the cluster-level metrics of the multi-scale loop (zero when the
// replay stage was disabled).
type Fig1Row struct {
	App           string
	Cores         int
	L1MPKI        float64
	L2MPKI        float64
	L3MPKI        float64
	GMemReqPerSec float64
	// EndToEndNs / MPIFraction / ParallelEff are the full-application
	// replay metrics at the sweep's largest replayed rank count.
	EndToEndNs  float64
	MPIFraction float64
	ParallelEff float64
}

// Figure1 extracts the runtime-statistics characterization at the reference
// configuration (medium core, 2 GHz, 128-bit, 64M:512K, 4-channel DDR4) for
// 32- and 64-core sockets.
func Figure1(d *Dataset) []Fig1Row {
	var out []Fig1Row
	for _, cores := range []int{32, 64} {
		for _, app := range appOrder(d.Measurements) {
			for _, m := range d.ByApp(app) {
				a := m.Arch
				if a.Cores == cores && a.Core.Name == "medium" && a.FreqGHz == 2.0 &&
					a.VectorBits == 128 && a.Cache.Label == "64M:512K" && a.Channels == 4 && a.Mem == DDR4 {
					out = append(out, Fig1Row{
						App: app, Cores: cores,
						L1MPKI: m.L1MPKI, L2MPKI: m.L2MPKI, L3MPKI: m.L3MPKI,
						GMemReqPerSec: m.GMemReqPerSec,
						EndToEndNs:    m.EndToEndNs,
						MPIFraction:   m.MPIFraction,
						ParallelEff:   m.ParallelEff,
					})
				}
			}
		}
	}
	return out
}
