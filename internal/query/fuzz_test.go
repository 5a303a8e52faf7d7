package query

import (
	"math"
	"testing"
)

// FuzzQueryParams feeds arbitrary parameter strings and vertex counts to
// every descriptor's Decode and, on every engine, Check — the path of every
// ?name=value a client sends. Neither may panic, and what they accept must
// be what the run funcs index by: a source in [0, n), an explicit top in
// [1, n], iterations in [1, 1000] and a damping factor in (0, 1). The values
// go to the descriptor's parameters in its order (pagerank: iters, damping,
// top; sssp: src, wseed, delta).
func FuzzQueryParams(f *testing.F) {
	f.Add(50, "3", "0.85", "60")
	f.Add(9, "-1", "", "")
	f.Add(math.MaxInt, "9223372036854775807", "NaN", "1e3")
	f.Fuzz(func(t *testing.T, n int, p0, p1, p2 string) {
		vals := []string{p0, p1, p2}
		for _, d := range Registry {
			given := map[string]string{}
			for i, p := range d.Params {
				given[p.Name] = vals[i]
			}
			get := func(k string) string { return given[k] }
			a, err := d.Decode(get, n)
			if err != nil {
				continue
			}
			if _, ok := given["src"]; ok && (a.Src < 0 || a.Src >= n) {
				t.Fatalf("%s: src %q decoded to %d, outside [0,%d)", d.Name, given["src"], a.Src, n)
			}
			if a.Iters < 1 || a.Iters > 1000 || !(a.Damping > 0 && a.Damping < 1) {
				t.Fatalf("%s: %+v decoded iterations or damping out of range", d.Name, a)
			}
			for _, eng := range Engines {
				if d.Check(eng, get, a, n) == nil && given["top"] != "" && (a.Top < 1 || a.Top > n) {
					t.Fatalf("%s on %s: top %q accepted as %d over %d vertices", d.Name, eng, given["top"], a.Top, n)
				}
			}
		}
	})
}
