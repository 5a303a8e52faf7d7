package graph

import (
	"math"
	"reflect"
	"testing"
)

// TestGenerateByName: the name the command-line tools share picks the
// generator and its fixed shape constants, road rounds N up to a square,
// CheckGenParams takes every size a generator takes and refuses the rest,
// and MaxDegreeVertex is the first vertex of the largest degree.
func TestGenerateByName(t *testing.T) {
	p := GenParams{Scale: 7, Deg: 6, N: 150, P: 0.05, Seed: 3}
	for kind, want := range map[string]*Graph{
		"kron":      Kronecker(7, 6, 3),
		"er":        ErdosRenyi(150, 0.05, 3),
		"road":      RoadGrid(13, 13, 0.1, 3), // 12² < 150 ≤ 13²
		"ba":        BarabasiAlbert(150, 6, 3),
		"community": Community(150, 64, 6, 0.05, 3),
	} {
		if err := CheckGenParams(kind, p); err != nil {
			t.Errorf("%s: %+v rejected: %v", kind, p, err)
		}
		if g, err := Generate(kind, p); err != nil || !reflect.DeepEqual(g, want) {
			t.Errorf("%s: not the generator's graph (%v)", kind, err)
		}
	}
	for _, kind := range []string{"er", "road", "ba", "community"} { // road used to round 0 up to a 1×1 grid
		if g, err := Generate(kind, GenParams{Deg: 6, P: 0.05, Seed: 3}); err != nil || g.N != 0 || g.Validate() != nil {
			t.Errorf("%s at N=0: %+v, %v; want the empty graph", kind, g, err)
		}
	}
	if g, err := Generate("web", p); err == nil || g != nil || err.Error() != `unknown graph kind "web"` {
		t.Errorf("web is not a shared kind: %v, %v", g, err)
	}
	for _, ok := range []struct {
		kind string
		p    GenParams
	}{{"kron", GenParams{}}, {"kron", GenParams{Scale: 30, N: 4096}}, {"er", GenParams{Scale: 10, Deg: 8, N: 1<<31 - 1}},
		{"road", GenParams{Scale: 10, Deg: 8, N: 46340 * 46340}}, {"kron", GenParams{Scale: 20, Deg: maxEdgeFactor(20)}},
		{"er", GenParams{Scale: 20, Deg: 1 << 44}}} {
		if err := CheckGenParams(ok.kind, ok.p); err != nil {
			t.Errorf("%s %+v rejected: %v", ok.kind, ok.p, err)
		}
	}
	for _, bad := range []struct {
		kind string
		p    GenParams
		want string
	}{{"kron", GenParams{Scale: -1}, "-scale -1: want 0 to 30 (2^scale vertices, 32-bit ids)"},
		{"kron", GenParams{Scale: 31}, "-scale 31: want 0 to 30 (2^scale vertices, 32-bit ids)"},
		{"ba", GenParams{Deg: -1}, "-deg -1: want 0 or more"},
		{"er", GenParams{N: -5}, "-n -5: want 0 to 2147483647 (32-bit ids)"},
		{"road", GenParams{N: 1<<31 - 1}, "-n 2147483647: want 0 to 2147395600 (32-bit ids)"},
		// 2^20·2^44 edges wrap to 0: an edgeless graph of a million vertices.
		{"kron", GenParams{Scale: 20, Deg: 1 << 44}, "-deg 17592186044416: want at most 219902325555 at -scale 20 (the edges' draws overflow int)"},
		{"web", GenParams{Scale: 20, Deg: 1<<43 + 1}, "-deg 8796093022209: want at most 219902325555 at -scale 20 (the edges' draws overflow int)"},
		{"kron", GenParams{Scale: 30, Deg: math.MaxInt}, "-deg 9223372036854775807: want at most 143165576 at -scale 30 (the edges' draws overflow int)"}} {
		if err := CheckGenParams(bad.kind, bad.p); err == nil || err.Error() != bad.want {
			t.Errorf("%s %+v: error %v, want %q", bad.kind, bad.p, err, bad.want)
		}
	}

	b := NewBuilder(5)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(4, 2)
	b.AddEdge(4, 3)
	if v := b.Build().MaxDegreeVertex(); v != 1 {
		t.Errorf("MaxDegreeVertex = %d, want 1 (the first of degree 2)", v)
	}
	if v := NewBuilder(0).Build().MaxDegreeVertex(); v != 0 {
		t.Errorf("MaxDegreeVertex of the empty graph = %d, want 0", v)
	}
}
