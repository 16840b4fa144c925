package chip

import (
	"testing"

	"bonnroute/internal/geom"
	"bonnroute/internal/rules"
)

func TestGenerateValid(t *testing.T) {
	c := Generate(GenParams{Seed: 1, Rows: 10, Cols: 24, NumNets: 80})
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(c.Nets) != 80 {
		t.Fatalf("nets = %d, want 80", len(c.Nets))
	}
	if len(c.Cells) == 0 || len(c.Pins) == 0 {
		t.Fatal("no cells or pins generated")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := GenParams{Seed: 7, Rows: 4, Cols: 8, NumNets: 30, PowerStripePeriod: 4}
	a, b := Generate(p), Generate(p)
	if len(a.Nets) != len(b.Nets) || len(a.Cells) != len(b.Cells) || len(a.Pins) != len(b.Pins) {
		t.Fatal("same seed produced different structure")
	}
	for i := range a.Pins {
		if a.Pins[i].Shapes[0] != b.Pins[i].Shapes[0] {
			t.Fatalf("pin %d differs", i)
		}
	}
	c := Generate(GenParams{Seed: 8, Rows: 4, Cols: 8, NumNets: 30, PowerStripePeriod: 4})
	same := len(a.Pins) == len(c.Pins)
	if same {
		diff := false
		for i := range a.Pins {
			if a.Pins[i].Shapes[0] != c.Pins[i].Shapes[0] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Fatal("different seeds produced identical pins")
	}
}

func TestGenerateGeometryInsideArea(t *testing.T) {
	c := Generate(GenParams{Seed: 3, Rows: 6, Cols: 14, NumNets: 50, PowerStripePeriod: 3})
	for i := range c.Pins {
		for _, s := range c.Pins[i].Shapes {
			if !c.Area.ContainsRect(s.Rect) {
				t.Errorf("pin %d shape %v escapes area %v", i, s.Rect, c.Area)
			}
		}
	}
	for i := range c.Cells {
		cell := &c.Cells[i]
		footprint := c.Protos[cell.Proto].Size.Translated(cell.Origin)
		if !c.Area.ContainsRect(footprint) {
			t.Errorf("cell %d footprint %v escapes area", i, footprint)
		}
	}
}

func TestGenerateDegreeDistribution(t *testing.T) {
	c := Generate(GenParams{Seed: 11, Rows: 16, Cols: 32, NumNets: 150})
	counts := map[int]int{}
	for i := range c.Nets {
		counts[len(c.Nets[i].Pins)]++
	}
	if counts[2] == 0 || counts[3] == 0 {
		t.Fatalf("degree distribution degenerate: %v", counts)
	}
	// Two-pin nets must dominate, as in real designs and Table II.
	if counts[2] < counts[4] {
		t.Errorf("2-pin nets (%d) should outnumber 4-pin nets (%d)", counts[2], counts[4])
	}
	for d := range counts {
		if d > 24 {
			t.Errorf("degree %d exceeds MaxDegree default", d)
		}
	}
}

func TestPinDisjointAcrossNets(t *testing.T) {
	c := Generate(GenParams{Seed: 5, Rows: 8, Cols: 16, NumNets: 60})
	type key struct{ cell, pin int }
	seen := map[key]int{}
	for i := range c.Pins {
		p := &c.Pins[i]
		if p.Cell < 0 {
			continue
		}
		k := key{p.Cell, p.ProtoPin}
		if prev, ok := seen[k]; ok {
			t.Fatalf("cell pin %v used by nets %d and %d", k, prev, p.Net)
		}
		seen[k] = p.Net
	}
}

func TestMirroredCells(t *testing.T) {
	c := Generate(GenParams{Seed: 2, Rows: 4, Cols: 8, NumNets: 20})
	sawMirror := false
	for i := range c.Cells {
		if c.Cells[i].Mirrored {
			sawMirror = true
			// Mirrored pin shapes still land inside the cell footprint.
			cell := &c.Cells[i]
			proto := &c.Protos[cell.Proto]
			fp := proto.Size.Translated(cell.Origin)
			for _, pinShapes := range proto.Pins {
				for _, ps := range pinShapes {
					r := c.cellRect(cell, ps.Rect)
					if !fp.ContainsRect(r) {
						t.Fatalf("mirrored pin %v escapes footprint %v", r, fp)
					}
				}
			}
		}
	}
	if !sawMirror {
		t.Fatal("no mirrored cells in a multi-row placement")
	}
}

func TestAllObstacles(t *testing.T) {
	c := Generate(GenParams{Seed: 4, Rows: 3, Cols: 6, NumNets: 10, PowerStripePeriod: 2})
	obs := c.AllObstacles()
	if len(obs) <= len(c.Obstacles) {
		t.Fatal("AllObstacles must include cell-internal blockages")
	}
	for _, o := range obs {
		if o.Layer < 0 || o.Layer >= c.NumLayers() {
			t.Errorf("obstacle layer %d out of range", o.Layer)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Chip { return Generate(GenParams{Seed: 1, Rows: 3, Cols: 6, NumNets: 10}) }

	c := fresh()
	c.Nets[0].WireType = 99
	if c.Validate() == nil {
		t.Error("bad wire type not caught")
	}

	c = fresh()
	c.Nets[0].Pins = c.Nets[0].Pins[:1]
	if c.Validate() == nil {
		t.Error("single-pin net not caught")
	}

	c = fresh()
	c.Pins[c.Nets[0].Pins[0]].Net = 1
	if c.Validate() == nil {
		t.Error("broken back-reference not caught")
	}

	c = fresh()
	c.Layers[1].Dir = c.Layers[0].Dir
	if c.Validate() == nil {
		t.Error("same-direction adjacent layers not caught")
	}

	c = fresh()
	c.Area = geom.Rect{}
	if c.Validate() == nil {
		t.Error("empty area not caught")
	}
}

func TestPinsOfAndDir(t *testing.T) {
	c := Generate(GenParams{Seed: 1, Rows: 3, Cols: 6, NumNets: 10})
	n := &c.Nets[0]
	pins := c.PinsOf(n)
	if len(pins) != len(n.Pins) {
		t.Fatal("PinsOf length mismatch")
	}
	for i, p := range pins {
		if p != &c.Pins[n.Pins[i]] {
			t.Fatal("PinsOf returned wrong pin")
		}
	}
	if c.Dir(0) != geom.Horizontal || c.Dir(1) != geom.Vertical {
		t.Fatal("layer direction convention broken")
	}
	if _, ok := interface{}(c.Deck).(*rules.Deck); !ok {
		t.Fatal("deck type")
	}
	if pins[0].Center() == (geom.Point{}) {
		t.Fatal("pin center degenerate")
	}
}

// TestValidateRejectsBadDeck: a deck that would make the routing space
// degenerate (no deck, too few layers, a non-positive pitch, width or
// minimum segment length) is an error from Validate, not a panic later.
func TestValidateRejectsBadDeck(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(c *Chip)
	}{
		{"nil deck", func(c *Chip) { c.Deck = nil }},
		{"deck with fewer layers", func(c *Chip) { c.Deck.Layers = c.Deck.Layers[:len(c.Layers)-1] }},
		{"zero pitch", func(c *Chip) { c.Deck.Layers[0].Pitch = 0 }},
		{"negative pitch", func(c *Chip) { c.Deck.Layers[1].Pitch = -40 }},
		{"zero min width", func(c *Chip) { c.Deck.Layers[0].MinWidth = 0 }},
		{"negative min width", func(c *Chip) { c.Deck.Layers[1].MinWidth = -1 }},
		{"zero min segment length", func(c *Chip) { c.Deck.Layers[0].MinSegLen = 0 }},
		{"negative min segment length", func(c *Chip) { c.Deck.Layers[len(c.Layers)-1].MinSegLen = -5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Generate(GenParams{Seed: 1, Rows: 3, Cols: 6, NumNets: 10})
			if err := c.Validate(); err != nil {
				t.Fatalf("generated chip invalid: %v", err)
			}
			deck := *c.Deck // the generator may share decks; break a copy
			deck.Layers = append([]rules.LayerRules(nil), deck.Layers...)
			c.Deck = &deck
			tc.corrupt(c)
			if c.Validate() == nil {
				t.Fatal("Validate accepted the broken deck")
			}
		})
	}
}
