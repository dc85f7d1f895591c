package dse

import (
	"slices"
	"testing"

	"musa/internal/apps"
)

// sortedGroups returns the annotation groups of apps × points in the order
// Run sorts them.
func sortedGroups(names []string, points []ArchPoint) []annGroupKey {
	var keys []annGroupKey
	for _, a := range names {
		for _, p := range points {
			k := annGroupKey{a, p.AnnGroup()}
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	slices.SortFunc(keys, compareGroups)
	return keys
}

// TestDispatchOrder checks the order Run hands annotation groups out in, on
// the full grid, the benchmark's 64-core 2 GHz slice and sweeps of one, two
// and a handful of groups per application: every group goes out once; each
// application's groups keep their sorted order; and the next application's
// first group, which runs its cold pass, goes out just before the current
// application's last two groups.
func TestDispatchOrder(t *testing.T) {
	grid := Enumerate()
	var slice, oneWidth, twoGroups []ArchPoint
	for _, p := range grid {
		if p.Cores == 64 && p.FreqGHz == 2.0 {
			slice = append(slice, p)
		}
		if p.VectorBits == 256 {
			oneWidth = append(oneWidth, p)
		}
		if p.Cores == 32 && p.Cache.L2KB == 256 && p.VectorBits != 512 {
			twoGroups = append(twoGroups, p)
		}
	}
	var names []string
	for _, a := range apps.All() {
		names = append(names, a.Name)
	}
	slices.Sort(names) // the order Run dispatches applications in
	for _, tc := range []struct {
		name   string
		apps   []string
		points []ArchPoint
	}{
		{"grid", names, grid},
		{"slice", names, slice},
		{"one width", names[:3], oneWidth},
		{"two groups", names, twoGroups},
		{"one point", names, grid[:1]},
		{"one app", names[:1], slice},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := sortedGroups(tc.apps, tc.points)
			order := dispatchOrder(keys)
			if len(order) != len(keys) {
				t.Fatalf("%d groups dispatched, want %d", len(order), len(keys))
			}
			pos := map[annGroupKey]int{}
			for i, k := range order {
				if _, dup := pos[k]; dup {
					t.Fatalf("group %+v dispatched twice", k)
				}
				pos[k] = i
			}
			byApp := map[string][]annGroupKey{}
			for _, k := range keys {
				byApp[k.app] = append(byApp[k.app], k)
			}
			for a, app := range tc.apps {
				groups := byApp[app]
				for i := 1; i < len(groups); i++ {
					if pos[groups[i-1]] > pos[groups[i]] {
						t.Fatalf("%s: group %+v dispatched before %+v", app, groups[i], groups[i-1])
					}
				}
				if a+1 == len(tc.apps) {
					continue
				}
				next := pos[byApp[tc.apps[a+1]][0]]
				// The groups still to place when the application's turn
				// comes: all but the first, which went out with the previous
				// application.
				first := 0
				if a > 0 {
					first = 1
				}
				last := max(len(groups)-2, first)
				for i := first; i < len(groups); i++ {
					if before := pos[groups[i]] < next; before != (i < last) {
						t.Fatalf("%s: group %d of %d dispatched before %s's first group: %v, want %v",
							app, i, len(groups), tc.apps[a+1], before, i < last)
					}
				}
			}
		})
	}
}
