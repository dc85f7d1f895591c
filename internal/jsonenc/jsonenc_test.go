package jsonenc

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
)

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestAppendStringMatchesMarshal(t *testing.T) {
	cases := []string{
		"", "hydro", `a<b&"c `, "tab\there", "nl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f", `back\slash`,
		"é ü 日本語 🚀", "line\u2028sep\u2029end", "bad\xffutf8\xc3", "\xf0\x9f", "64c/medium/2.0GHz/128b/64M:512K/4chDDR4",
	}
	// Every single byte, alone and between ASCII neighbours.
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), string([]byte{'x', byte(b), 'y'}))
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 500; i++ {
		buf := make([]byte, rng.IntN(12))
		for j := range buf {
			buf[j] = byte(rng.IntN(256))
		}
		cases = append(cases, string(buf))
	}
	for _, s := range cases {
		if got, want := string(AppendString(nil, s)), marshal(t, s); got != want {
			t.Errorf("AppendString(%q) = %s, json.Marshal = %s", s, got, want)
		}
	}
	if got := string(AppendString([]byte("k:"), "v")); got != `k:"v"` {
		t.Errorf("AppendString dropped its prefix: %s", got)
	}
}

func TestAppendFloatMatchesMarshal(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.001, 12.345, 2.0, 1.5, 1e21, 1e20, 9.999999999999999e20, 1e-6, 9.99e-7, 1e-7,
		1e-9, 1e-10, 1e100, -1e-100, 1e22, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2,
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 2000; i++ {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			cases = append(cases, f)
		}
		cases = append(cases, rng.NormFloat64()*math.Pow(10, float64(rng.IntN(50)-25)))
	}
	for _, f := range cases {
		if got, want := string(AppendFloat(nil, f)), marshal(t, f); got != want {
			t.Errorf("AppendFloat(%v) = %s, json.Marshal = %s", f, got, want)
		}
	}
}
