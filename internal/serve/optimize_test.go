package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"musa"
)

func TestOptimizeEndpointStreams(t *testing.T) {
	ts, svc := testServer(t)

	body := `{"app":"spmz","pointIndices":[0,100,200,300,400,500,600,700],
		"sample":8000,"noReplay":true,
		"optimize":{"objectives":["edp"],"eta":2,"finalists":2},
		"progressEvery":1}`
	resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("/optimize -> %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var progress, rungs, results int
	var final struct {
		Type     string               `json:"type"`
		Cached   int                  `json:"cached"`
		Optimize *musa.OptimizeResult `json:"optimize"`
	}
	var rungEvents []musa.RungSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var ev struct {
			Type string            `json:"type"`
			Rung *musa.RungSummary `json:"rung"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "progress":
			progress++
		case "rung":
			rungs++
			rungEvents = append(rungEvents, *ev.Rung)
		case "result":
			results++
			json.Unmarshal(sc.Bytes(), &final)
		default:
			t.Fatalf("unexpected event type %q", ev.Type)
		}
	}
	if progress < 8 || rungs < 2 || results != 1 {
		t.Fatalf("stream had %d progress, %d rung, %d result events", progress, rungs, results)
	}
	opt := final.Optimize
	if opt == nil || opt.Best == nil || len(opt.Frontier) == 0 {
		t.Fatalf("result event malformed: %+v", final)
	}
	if len(opt.Rungs) != rungs {
		t.Fatalf("result lists %d rungs but the stream emitted %d rung events", len(opt.Rungs), rungs)
	}
	if rungEvents[0].Sample >= 8000 || rungEvents[len(rungEvents)-1].Sample != 8000 {
		t.Fatalf("ladder fidelity malformed: first sample %d, last %d",
			rungEvents[0].Sample, rungEvents[len(rungEvents)-1].Sample)
	}
	if opt.CostRatio <= 0 || opt.CostRatio >= 1 {
		t.Fatalf("cost ratio %g out of (0, 1)", opt.CostRatio)
	}

	// A repeat of the same search is served from the warmed store without
	// new simulations, and the OptimizeResult is byte-identical.
	before := svc.Client().Stats().Simulated
	resp2, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(b2)), "\n")
	var warm struct {
		Optimize *musa.OptimizeResult `json:"optimize"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &warm); err != nil {
		t.Fatal(err)
	}
	if svc.Client().Stats().Simulated != before {
		t.Fatalf("warm /optimize re-simulated (%d -> %d)", before, svc.Client().Stats().Simulated)
	}
	cold, _ := json.Marshal(opt)
	hot, _ := json.Marshal(warm.Optimize)
	if string(cold) != string(hot) {
		t.Fatalf("warm optimize result differs:\ncold %s\nwarm %s", cold, hot)
	}
}

func TestOptimizeEndpointRejectsBadRequests(t *testing.T) {
	ts, _ := testServer(t)
	cases := []struct {
		name, body string
	}{
		{"wrong kind", `{"kind":"sweep","apps":["spmz"]}`},
		{"missing app", `{"pointIndices":[0,1]}`},
		{"bad objective", `{"app":"spmz","optimize":{"objectives":["watts"]}}`},
		{"bad eta", `{"app":"spmz","optimize":{"eta":99}}`},
		{"malformed json", `{"app":`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// Validation must fail before the 200 commits the NDJSON stream.
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: /optimize -> %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestPointAliasRefused pins the end of the pre-v1 "point" spelling of
// "arch": such a body names no architecture, and /simulate says so with a
// 400 instead of decoding it or simulating something else.
func TestPointAliasRefused(t *testing.T) {
	ts, _ := testServer(t)
	arch := specJSON(t, ts, 10)
	if code := postJSON(t, ts.URL+"/simulate", fmt.Sprintf(`{"app":"lulesh","arch":%s}`, arch), nil); code != http.StatusOK {
		t.Fatalf("arch /simulate -> %d", code)
	}
	var reply struct {
		Error string `json:"error"`
	}
	code := postJSON(t, ts.URL+"/simulate", fmt.Sprintf(`{"app":"lulesh","point":%s}`, arch), &reply)
	if code != http.StatusBadRequest || !strings.Contains(reply.Error, "missing Arch or PointIndex") {
		t.Fatalf(`"point" /simulate -> %d %q, want 400 naming the missing architecture`, code, reply.Error)
	}
}
