// Package chip defines the design model routed by BonnRoute — layers,
// cells, pins, blockages, and nets — plus a deterministic synthetic
// generator that stands in for the proprietary IBM designs of the paper's
// evaluation (§5.3). The generator produces standard-cell rows built from
// a small prototype library (so pin-access preprocessing can exploit
// circuit classes exactly as §4.3 describes), power rails and stripes as
// blockages, and Rent-style locality-clustered netlists.
package chip

import (
	"fmt"

	"bonnroute/internal/geom"
	"bonnroute/internal/rules"
)

// Layer is one wiring layer of the stack.
type Layer struct {
	// Z is the layer index, 0 = lowest.
	Z int
	// Dir is the preferred routing direction. Horizontal and vertical
	// layers alternate (paper §1.1).
	Dir geom.Direction
}

// PinShape is one rectangle of pin metal. The JSON field names are part
// of the service wire schema (ECO deltas travel over HTTP).
type PinShape struct {
	Rect  geom.Rect `json:"rect"`
	Layer int       `json:"layer"`
}

// Pin is a connection point of a net: one or more metal shapes, usually on
// the lowest layers, often not aligned with routing tracks.
type Pin struct {
	// Net is the index of the owning net in Chip.Nets.
	Net int
	// Shapes are the pin's metal rectangles.
	Shapes []PinShape
	// Cell is the index of the owning cell in Chip.Cells, or -1 for an
	// I/O pin not belonging to a placed cell.
	Cell int
	// ProtoPin is the pin index within the cell prototype (meaningful
	// when Cell >= 0); pin-access catalogues are keyed per prototype pin.
	ProtoPin int
}

// Center returns a representative point of the pin (center of its first
// shape).
func (p *Pin) Center() geom.Point { return p.Shapes[0].Rect.Center() }

// Net is a set of pins to be connected.
type Net struct {
	ID   int
	Name string
	// Pins are indices into Chip.Pins.
	Pins []int
	// WireType indexes Chip.WireTypes; 0 is the standard type.
	WireType int
	// Critical nets are routed first by the detailed router (paper §5.1).
	Critical bool
}

// Obstacle is fixed blockage metal (power rails/stripes, macros). The
// JSON field names are part of the service wire schema.
type Obstacle struct {
	Rect  geom.Rect `json:"rect"`
	Layer int       `json:"layer"`
}

// CellProto is a library cell prototype. Instances of the same prototype
// in geometrically equal surroundings form the circuit classes of §4.3.
type CellProto struct {
	Name string
	// Size is the cell footprint with origin at (0,0).
	Size geom.Rect
	// Pins are the prototype pin geometries relative to the origin.
	Pins [][]PinShape
	// Blockages are internal blockage shapes relative to the origin.
	Blockages []Obstacle
}

// Cell is a placed instance of a prototype.
type Cell struct {
	Proto  int // index into Chip.Protos
	Origin geom.Point
	// Mirrored instances flip in x; the generator uses this in alternate
	// rows like real placements, which multiplies circuit classes.
	Mirrored bool
}

// Chip is a complete routing instance.
type Chip struct {
	Name string
	// Area is the routable die area.
	Area geom.Rect
	// Deck holds the design rules.
	Deck *rules.Deck
	// Layers is the wiring stack, Layers[z].Z == z.
	Layers []Layer
	// WireTypes available to nets; index 0 must be the standard type.
	WireTypes []*rules.WireType
	Protos    []CellProto
	Cells     []Cell
	Pins      []Pin
	Nets      []Net
	Obstacles []Obstacle
}

// Dir returns the preferred direction of wiring layer z.
func (c *Chip) Dir(z int) geom.Direction { return c.Layers[z].Dir }

// NumLayers returns the number of wiring layers.
func (c *Chip) NumLayers() int { return len(c.Layers) }

// PinsOf returns the pins of net n.
func (c *Chip) PinsOf(n *Net) []*Pin {
	out := make([]*Pin, len(n.Pins))
	for i, pi := range n.Pins {
		out[i] = &c.Pins[pi]
	}
	return out
}

// CellShape materializes the placed geometry of a prototype shape.
func (c *Chip) cellRect(cell *Cell, r geom.Rect) geom.Rect {
	if cell.Mirrored {
		proto := &c.Protos[cell.Proto]
		w := proto.Size.XMax
		r = geom.Rect{XMin: w - r.XMax, YMin: r.YMin, XMax: w - r.XMin, YMax: r.YMax}
	}
	return r.Translated(cell.Origin)
}

// AllObstacles returns the chip-level obstacles plus the materialized
// blockages of every placed cell.
func (c *Chip) AllObstacles() []Obstacle {
	out := make([]Obstacle, 0, len(c.Obstacles))
	out = append(out, c.Obstacles...)
	for i := range c.Cells {
		cell := &c.Cells[i]
		for _, b := range c.Protos[cell.Proto].Blockages {
			out = append(out, Obstacle{Rect: c.cellRect(cell, b.Rect), Layer: b.Layer})
		}
	}
	return out
}

// Validate performs structural sanity checks and returns the first
// problem found, or nil.
func (c *Chip) Validate() error {
	if c.Area.Empty() {
		return fmt.Errorf("chip %s: empty area", c.Name)
	}
	if len(c.Layers) < 2 {
		return fmt.Errorf("chip %s: need at least 2 layers", c.Name)
	}
	if len(c.WireTypes) == 0 {
		return fmt.Errorf("chip %s: no wire types", c.Name)
	}
	if c.Deck == nil {
		return fmt.Errorf("chip %s: no rule deck", c.Name)
	}
	if len(c.Deck.Layers) < len(c.Layers) {
		return fmt.Errorf("chip %s: deck has %d layers, chip %d", c.Name, len(c.Deck.Layers), len(c.Layers))
	}
	for z := range c.Layers {
		lr := &c.Deck.Layers[z]
		if lr.Pitch <= 0 || lr.MinWidth <= 0 || lr.MinSegLen <= 0 {
			return fmt.Errorf("layer %d: pitch %d, min width %d and min segment length %d must be positive",
				z, lr.Pitch, lr.MinWidth, lr.MinSegLen)
		}
	}
	for z, l := range c.Layers {
		if l.Z != z {
			return fmt.Errorf("layer %d has Z=%d", z, l.Z)
		}
		if z > 0 && c.Layers[z-1].Dir == l.Dir {
			return fmt.Errorf("layers %d and %d share direction %v", z-1, z, l.Dir)
		}
	}
	for i := range c.Nets {
		n := &c.Nets[i]
		if n.ID != i {
			return fmt.Errorf("net %q: ID %d at index %d", n.Name, n.ID, i)
		}
		if len(n.Pins) < 2 {
			return fmt.Errorf("net %q: %d pins", n.Name, len(n.Pins))
		}
		if n.WireType < 0 || n.WireType >= len(c.WireTypes) {
			return fmt.Errorf("net %q: wire type %d out of range", n.Name, n.WireType)
		}
		for _, pi := range n.Pins {
			if pi < 0 || pi >= len(c.Pins) {
				return fmt.Errorf("net %q: pin index %d out of range", n.Name, pi)
			}
			if c.Pins[pi].Net != i {
				return fmt.Errorf("net %q: pin %d back-reference is %d", n.Name, pi, c.Pins[pi].Net)
			}
			for _, s := range c.Pins[pi].Shapes {
				if s.Layer < 0 || s.Layer >= len(c.Layers) {
					return fmt.Errorf("pin %d: layer %d out of range", pi, s.Layer)
				}
				if s.Rect.Empty() {
					return fmt.Errorf("pin %d: empty shape", pi)
				}
			}
		}
	}
	for _, o := range c.Obstacles {
		if o.Layer < 0 || o.Layer >= len(c.Layers) {
			return fmt.Errorf("obstacle on layer %d out of range", o.Layer)
		}
	}
	return nil
}
