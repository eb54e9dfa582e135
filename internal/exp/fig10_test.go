package exp

import (
	"slices"
	"testing"
)

// TestFig10CostsPerRole checks that Figure 10 charges each host role the
// same host cost in both variants, so its gap measures Dysco's agents and
// not a difference between two cost tables.
func TestFig10CostsPerRole(t *testing.T) {
	for _, nm := range []int{1, 4} {
		_, dc, dm, ds := fig10Line(nm, true, 1)
		_, bc, bm, bs := fig10Line(nm, false, 1)
		d, b := slices.Concat(dc, dm, ds), slices.Concat(bc, bm, bs)
		for i := range d {
			if d[i].Host.Cost != b[i].Host.Cost {
				t.Errorf("%d mbox: %s costs dysco=%+v baseline=%+v",
					nm, d[i].Host.Name, d[i].Host.Cost, b[i].Host.Cost)
			}
		}
	}
}
