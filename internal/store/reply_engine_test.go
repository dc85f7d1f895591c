package store

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"musa/internal/apps"
	"musa/internal/dse"
)

// reducedSweep simulates a few points of three applications, replay
// included, at a small sample: measurements of every shape a store holds.
func reducedSweep(t *testing.T) []dse.Measurement {
	t.Helper()
	var selected []*apps.Profile
	for _, name := range []string{"hydro", "btmz", "lulesh"} {
		a, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		selected = append(selected, a)
	}
	grid := dse.Enumerate()
	d := dse.Run(context.Background(), dse.Options{
		Apps:         selected,
		Points:       []dse.ArchPoint{grid[0], grid[301], grid[588], grid[len(grid)-1]},
		SampleInstrs: 2000, WarmupInstrs: 4000, Seed: 1, Workers: 2,
		Replay: dse.ReplayConfig{Ranks: []int{8}},
	})
	if len(d.Measurements) != 12 {
		t.Fatalf("%d measurements, want 12", len(d.Measurements))
	}
	return d.Measurements
}

// TestReplyFromEngineBytes holds a reply built from the engine's bytes — a
// Reply that misses the front indents json.Marshal of the measurement
// instead of decoding and re-encoding it — to ReplyForm byte for byte, over
// every measurement of a reduced multi-application sweep, and the entry it
// leaves to the measurement put: a later Get decodes it from the form
// without asking the engine. Gets and Replies racing on one such entry, or
// on a key the front does not hold, agree with both (run under -race).
func TestReplyFromEngineBytes(t *testing.T) {
	ms := reducedSweep(t)
	st, err := Open(t.TempDir(), Options{LRUEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = fmt.Sprintf("%s-%d", m.App, i)
		if err := st.Put(keys[i], m); err != nil {
			t.Fatal(err)
		}
	}
	empty := func() {
		st.mu.Lock()
		st.lru = newLRU(1)
		st.mu.Unlock()
	}
	empty() // the last Put left its measurement resident, decoded

	for i, m := range ms {
		want, err := ReplyForm(m)
		if err != nil {
			t.Fatal(err)
		}
		gets, builds := st.EngineStats().Gets, st.FrontStats().ReplyBuilds
		reply, ok := st.Reply(keys[i])
		if !ok || !bytes.Equal(reply, want) {
			t.Fatalf("%s: Reply = %v\n%s\nwant ReplyForm:\n%s", keys[i], ok, reply, want)
		}
		if g, b := st.EngineStats().Gets-gets, st.FrontStats().ReplyBuilds-builds; g != 1 || b != 1 {
			t.Fatalf("%s: Reply made %d engine gets and %d builds, want the one-entry front to miss: 1 and 1", keys[i], g, b)
		}
		got, ok := st.Get(keys[i])
		if !ok || !reflect.DeepEqual(got, m) {
			t.Fatalf("%s: Get after the reply = %+v, %v; want the measurement put", keys[i], got, ok)
		}
		if g := st.EngineStats().Gets - gets; g != 1 {
			t.Fatalf("%s: the Get after the reply asked the engine (%d gets), want it decoded from the front", keys[i], g)
		}
	}

	// Racers on one key: first from an entry that holds only the reply form,
	// then from an empty front, where Gets and Replies both reach the engine.
	k, m := keys[5], ms[5]
	want, _ := ReplyForm(m)
	for _, start := range []string{"reply form only", "empty front"} {
		empty()
		if start == "reply form only" {
			if _, ok := st.Reply(k); !ok {
				t.Fatal("stored key missed")
			}
		}
		const n = 8
		errs := make(chan string, 2*n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				if got, ok := st.Get(k); !ok || !reflect.DeepEqual(got, m) {
					errs <- fmt.Sprintf("Get = %+v, %v", got, ok)
				}
			}()
			go func() {
				defer wg.Done()
				if got, ok := st.Reply(k); !ok || !bytes.Equal(got, want) {
					errs <- fmt.Sprintf("Reply = %v\n%s", ok, got)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Errorf("%s: %s", start, e)
		}
	}
}
