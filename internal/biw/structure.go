// Package biw models the vehicle Body-in-White (BiW) as an acoustic
// medium. The BiW is represented as a graph of structural elements
// (floor panels, rocker panels, pillars, beams); vibration launched by
// the reader's PZT propagates along the sheet metal, losing energy to
// distance attenuation and to geometric junctions (welded seams,
// perpendicular transitions). The model exposes per-link channel gains
// that the energy-harvesting and communication layers consume.
//
// The paper deploys on the BiW of an ONVO L60 SUV (4.8 m x 1.9 m) with
// 12 tags and a single reader; NewONVOL60 reproduces that deployment,
// calibrated so the harvested voltages match Fig. 11(a) of the paper.
package biw

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Position is a point on the BiW in vehicle coordinates: x runs from
// the front bumper (0) to the rear (vehicle length), y from the left
// side (negative) to the right (positive), z upward from the floor.
// Units are meters.
type Position struct {
	X, Y, Z float64
}

// Distance returns the Euclidean distance between two positions.
func (p Position) Distance(q Position) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

func (p Position) String() string {
	return fmt.Sprintf("(%.2f, %.2f, %.2f)", p.X, p.Y, p.Z)
}

// ElementKind classifies a structural element. The kind has no direct
// effect on propagation (losses live on edges) but is useful for
// reporting and deployment description.
type ElementKind int

const (
	KindFloorPanel ElementKind = iota
	KindRockerPanel
	KindPillar
	KindBeam
	KindDashboard
	KindThreshold
)

var kindNames = map[ElementKind]string{
	KindFloorPanel:  "floor-panel",
	KindRockerPanel: "rocker-panel",
	KindPillar:      "pillar",
	KindBeam:        "beam",
	KindDashboard:   "dashboard",
	KindThreshold:   "threshold",
}

func (k ElementKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("ElementKind(%d)", int(k))
}

// Element is one structural member of the BiW.
type Element struct {
	Name string
	Kind ElementKind
	Pos  Position // representative mount point on the element
}

// Junction is a welded or cast transition between two elements. LossDB is
// the extra attenuation (dB) a wave suffers crossing the junction, on
// top of the distance attenuation along the connecting metal.
type Junction struct {
	A, B   string  // element names
	LossDB float64 // dB, >= 0
}

// Structure is the acoustic graph of the BiW.
type Structure struct {
	// AttenuationDBPerMeter is the distance attenuation of a 90 kHz
	// Lamb wave in the sheet metal, including spreading loss.
	AttenuationDBPerMeter float64
	// CouplingLossDB is the fixed loss of the transmit-side
	// electro-mechanical conversion plus epoxy bond, applied once per
	// end-to-end path.
	CouplingLossDB float64

	elements map[string]*Element
	adj      map[string][]edge
	// table caches the all-pairs paths; AddElement and Connect clear it.
	// Queries may run concurrently; AddElement and Connect may not run
	// alongside them.
	table atomic.Pointer[pathTable]
}

type edge struct {
	to       string
	distance float64
	junction float64
}

// NewStructure returns an empty structure with the given loss constants.
func NewStructure(attenuationDBPerMeter, couplingLossDB float64) *Structure {
	return &Structure{
		AttenuationDBPerMeter: attenuationDBPerMeter,
		CouplingLossDB:        couplingLossDB,
		elements:              make(map[string]*Element),
		adj:                   make(map[string][]edge),
	}
}

// AddElement registers a structural element. Re-adding a name replaces
// the element but keeps its junctions.
func (s *Structure) AddElement(name string, kind ElementKind, pos Position) {
	s.elements[name] = &Element{Name: name, Kind: kind, Pos: pos}
	s.table.Store(nil)
}

// Element returns the named element, or nil.
func (s *Structure) Element(name string) *Element { return s.elements[name] }

// Elements returns all element names in sorted order.
func (s *Structure) Elements() []string {
	names := make([]string, 0, len(s.elements))
	for n := range s.elements {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Connect adds a bidirectional junction between two elements. The
// distance used for attenuation is the Euclidean distance between the
// elements' mount points. It returns an error if either endpoint is
// unknown.
func (s *Structure) Connect(a, b string, junctionLossDB float64) error {
	ea, ok := s.elements[a]
	if !ok {
		return fmt.Errorf("biw: unknown element %q", a)
	}
	eb, ok := s.elements[b]
	if !ok {
		return fmt.Errorf("biw: unknown element %q", b)
	}
	d := ea.Pos.Distance(eb.Pos)
	s.adj[a] = append(s.adj[a], edge{to: b, distance: d, junction: junctionLossDB})
	s.adj[b] = append(s.adj[b], edge{to: a, distance: d, junction: junctionLossDB})
	s.table.Store(nil)
	return nil
}

// PathLossDB returns the one-way acoustic loss in dB between mount
// points on elements a and b (minimum-loss path through the structure),
// including the fixed coupling loss. The second return is the physical
// path length in meters (for propagation-delay computation). It returns
// an error if no path exists.
//
// Results come from the structure's all-pairs path table, built on the
// first query after the last AddElement or Connect; the lookup takes
// no lock and allocates nothing.
func (s *Structure) PathLossDB(a, b string) (lossDB, pathMeters float64, err error) {
	t := s.paths()
	src, ok := t.index[a]
	if !ok {
		return 0, 0, fmt.Errorf("biw: unknown element %q", a)
	}
	dst, ok := t.index[b]
	if !ok {
		return 0, 0, fmt.Errorf("biw: unknown element %q", b)
	}
	k := src*t.n + dst
	if math.IsInf(t.loss[k], 1) {
		return 0, 0, fmt.Errorf("biw: no acoustic path from %q to %q", a, b)
	}
	return t.loss[k] + s.CouplingLossDB, t.dist[k], nil
}

// pathTable is the dense all-pairs channel of a Structure: for every
// ordered element pair (src, dst) the minimum junction-plus-distance
// loss (dB, coupling loss excluded) and the length of that path.
// Elements are numbered in Elements() order; entry src*n+dst holds the
// pair. Unreachable pairs hold +Inf loss. A table is immutable once
// published.
type pathTable struct {
	n     int
	index map[string]int
	// att is the AttenuationDBPerMeter the table was built with.
	att  float64
	loss []float64
	dist []float64
}

// paths returns the current path table, building it if AddElement,
// Connect or a change of AttenuationDBPerMeter invalidated it.
// Concurrent first callers may each build a table; the builds are
// identical, so whichever is published last is as good as any.
func (s *Structure) paths() *pathTable {
	if t := s.table.Load(); t != nil && t.att == s.AttenuationDBPerMeter {
		return t
	}
	t := s.buildPaths()
	s.table.Store(t)
	return t
}

// buildPaths runs Dijkstra from every element over integer indices.
// Each entry is the node's (loss, dist) when it is extracted, which is
// what a single-pair search stopping at that node returns. Relaxation
// is strict (the first path to reach a loss keeps it) and the
// minimum-loss scan takes the lowest index on a tie, so equal-loss
// paths resolve the same way on every build.
func (s *Structure) buildPaths() *pathTable {
	names := s.Elements()
	n := len(names)
	t := &pathTable{
		n:     n,
		index: make(map[string]int, n),
		att:   s.AttenuationDBPerMeter,
		loss:  make([]float64, n*n),
		dist:  make([]float64, n*n),
	}
	for i, name := range names {
		t.index[name] = i
	}
	type iedge struct {
		to                 int
		distance, junction float64
	}
	adj := make([][]iedge, n)
	for i, name := range names {
		for _, e := range s.adj[name] {
			adj[i] = append(adj[i], iedge{to: t.index[e.to], distance: e.distance, junction: e.junction})
		}
	}
	best := make([]float64, n)
	bestDist := make([]float64, n)
	visited := make([]bool, n)
	for src := 0; src < n; src++ {
		row := t.loss[src*n : (src+1)*n]
		rowDist := t.dist[src*n : (src+1)*n]
		for i := range best {
			best[i], bestDist[i], visited[i] = math.Inf(1), 0, false
			row[i], rowDist[i] = math.Inf(1), 0
		}
		best[src] = 0
		for {
			// Extract the unvisited node with the smallest loss.
			cur, curLoss := -1, math.Inf(1)
			for i, l := range best {
				if !visited[i] && l < curLoss {
					cur, curLoss = i, l
				}
			}
			if cur < 0 {
				break
			}
			curDist := bestDist[cur]
			visited[cur] = true
			row[cur], rowDist[cur] = curLoss, curDist
			for _, e := range adj[cur] {
				nl := curLoss + e.distance*t.att + e.junction
				if nl < best[e.to] {
					best[e.to], bestDist[e.to] = nl, curDist+e.distance
				}
			}
		}
	}
	return t
}

// Gain returns the one-way linear amplitude gain (0..1) between two
// elements: 10^(-loss/20).
func (s *Structure) Gain(a, b string) (float64, error) {
	loss, _, err := s.PathLossDB(a, b)
	if err != nil {
		return 0, err
	}
	return math.Pow(10, -loss/20), nil
}

// SpeedOfSound is the group velocity of the 90 kHz plate wave in the
// BiW sheet steel, used for propagation delays. m/s.
const SpeedOfSound = 5100.0

// PropagationDelay returns the one-way acoustic travel time in seconds
// between two elements along the minimum-loss path.
func (s *Structure) PropagationDelay(a, b string) (float64, error) {
	_, dist, err := s.PathLossDB(a, b)
	if err != nil {
		return 0, err
	}
	return dist / SpeedOfSound, nil
}
