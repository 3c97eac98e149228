package system

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ioa"
)

// MaxLocs bounds the location count of every composition: topology
// adjacency and the consensus machines' round records are 64-bit location
// masks.
const MaxLocs = 64

// Topology restricts which directed links of the n-location mesh exist.
// The paper's model (§4.3) assumes the complete graph; a Topology is the
// controlled relaxation of that assumption — a channel automaton is only
// composed for links the topology contains, so a send over a missing link
// synchronizes with nothing and the message vanishes at the sender.
//
// The zero value is the full mesh over any number of locations, so code
// that never mentions topologies behaves exactly as before.  Topologies
// round-trip through the compact descriptor strings of ParseTopology so
// they can ride along in a trace.Artifact.
type Topology struct {
	n    int
	desc string
	adj  []uint64 // adj[i] = bitmask of destinations reachable from i; nil = full
}

// FullTopology is the complete graph (the paper's reliable-mesh default).
func FullTopology(n int) Topology { return Topology{n: n} }

// RingTopology connects i ↔ i+1 mod n bidirectionally.
func RingTopology(n int) Topology {
	t := emptyTopology(n, "ring")
	for i := 0; i < n; i++ {
		t.link(i, (i+1)%n)
		t.link((i+1)%n, i)
	}
	return t
}

// StarTopology connects every location bidirectionally to the hub and to
// nothing else.
func StarTopology(n int, hub ioa.Loc) Topology {
	t := emptyTopology(n, fmt.Sprintf("star:%d", hub))
	for i := 0; i < n; i++ {
		if ioa.Loc(i) != hub {
			t.link(i, int(hub))
			t.link(int(hub), i)
		}
	}
	return t
}

// GridTopology lays rows×cols locations out row-major and connects
// 4-neighborhoods bidirectionally (a 1×n grid is the line).
func GridTopology(rows, cols int) Topology {
	t := emptyTopology(rows*cols, fmt.Sprintf("grid:%dx%d", rows, cols))
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				t.link(idx(r, c), idx(r, c+1))
				t.link(idx(r, c+1), idx(r, c))
			}
			if r+1 < rows {
				t.link(idx(r, c), idx(r+1, c))
				t.link(idx(r+1, c), idx(r, c))
			}
		}
	}
	return t
}

// CutTopology is the full mesh minus every link touching loc: the location
// is isolated structurally (its channels do not exist), as opposed to being
// partitioned by a gate (its deliveries are vetoed) — the difference is
// observable as StopQuiescent versus StopGated.
func CutTopology(n int, loc ioa.Loc) Topology {
	t := emptyTopology(n, fmt.Sprintf("cut:%d", loc))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && ioa.Loc(i) != loc && ioa.Loc(j) != loc {
				t.link(i, j)
			}
		}
	}
	return t
}

// Link is one directed edge of an arbitrary topology.
type Link struct{ From, To ioa.Loc }

// LinksTopology is the arbitrary directed graph over exactly the given
// links.
func LinksTopology(n int, links ...Link) Topology {
	parts := make([]string, len(links))
	for i, l := range links {
		parts[i] = fmt.Sprintf("%d>%d", l.From, l.To)
	}
	t := emptyTopology(n, "links:"+strings.Join(parts, ","))
	for _, l := range links {
		t.link(int(l.From), int(l.To))
	}
	return t
}

func emptyTopology(n int, desc string) Topology {
	if n > MaxLocs {
		panic(fmt.Sprintf("system: topology over %d locations exceeds the %d-location bound", n, MaxLocs))
	}
	return Topology{n: n, desc: desc, adj: make([]uint64, n)}
}

func (t *Topology) link(from, to int) { t.adj[from] |= 1 << uint(to) }

// IsFull reports whether the topology is the unrestricted mesh.
func (t Topology) IsFull() bool { return t.adj == nil }

// Has reports whether the directed link from→to exists.  Self-loops never
// exist (the mesh has no i→i channel).
func (t Topology) Has(from, to ioa.Loc) bool {
	if from == to {
		return false
	}
	if t.adj == nil {
		return true
	}
	if int(from) >= len(t.adj) {
		return false
	}
	return t.adj[from]>>uint(to)&1 == 1
}

// Desc returns the descriptor string ParseTopology round-trips ("full" for
// the zero value).
func (t Topology) Desc() string {
	if t.adj == nil {
		return "full"
	}
	return t.desc
}

// Equal reports whether two topologies connect the same links (Topology
// holds a slice, so == does not apply).
func (t Topology) Equal(o Topology) bool {
	if t.adj == nil || o.adj == nil {
		return t.adj == nil && o.adj == nil
	}
	if len(t.adj) != len(o.adj) {
		return false
	}
	for i := range t.adj {
		if t.adj[i] != o.adj[i] {
			return false
		}
	}
	return true
}

// ParseTopology resolves a descriptor for n locations: "" or "full",
// "ring", "star:H", "grid:RxC" (with R*C = n), "cut:L", or
// "links:a>b,c>d,...".  Every constructor's Desc round-trips through it.
func ParseTopology(n int, desc string) (Topology, error) {
	if n < 1 || n > MaxLocs {
		return Topology{}, fmt.Errorf("system: topology over %d locations outside 1..%d", n, MaxLocs)
	}
	switch {
	case desc == "" || desc == "full":
		return FullTopology(n), nil
	case desc == "ring":
		return RingTopology(n), nil
	case strings.HasPrefix(desc, "star:"):
		hub, err := strconv.Atoi(strings.TrimPrefix(desc, "star:"))
		if err != nil || hub < 0 || hub >= n {
			return Topology{}, fmt.Errorf("system: bad star topology %q for n=%d", desc, n)
		}
		return StarTopology(n, ioa.Loc(hub)), nil
	case strings.HasPrefix(desc, "grid:"):
		dims := strings.SplitN(strings.TrimPrefix(desc, "grid:"), "x", 2)
		if len(dims) != 2 {
			return Topology{}, fmt.Errorf("system: bad grid topology %q", desc)
		}
		rows, err1 := strconv.Atoi(dims[0])
		cols, err2 := strconv.Atoi(dims[1])
		if err1 != nil || err2 != nil || rows <= 0 || cols <= 0 || rows*cols != n {
			return Topology{}, fmt.Errorf("system: grid topology %q does not cover n=%d", desc, n)
		}
		return GridTopology(rows, cols), nil
	case strings.HasPrefix(desc, "cut:"):
		loc, err := strconv.Atoi(strings.TrimPrefix(desc, "cut:"))
		if err != nil || loc < 0 || loc >= n {
			return Topology{}, fmt.Errorf("system: bad cut topology %q for n=%d", desc, n)
		}
		return CutTopology(n, ioa.Loc(loc)), nil
	case strings.HasPrefix(desc, "links:"):
		var links []Link
		body := strings.TrimPrefix(desc, "links:")
		if body != "" {
			for _, part := range strings.Split(body, ",") {
				ends := strings.SplitN(part, ">", 2)
				if len(ends) != 2 {
					return Topology{}, fmt.Errorf("system: bad link %q in topology %q", part, desc)
				}
				from, err1 := strconv.Atoi(ends[0])
				to, err2 := strconv.Atoi(ends[1])
				if err1 != nil || err2 != nil || from < 0 || to < 0 || from >= n || to >= n || from == to {
					return Topology{}, fmt.Errorf("system: bad link %q in topology %q for n=%d", part, desc, n)
				}
				links = append(links, Link{ioa.Loc(from), ioa.Loc(to)})
			}
		}
		return LinksTopology(n, links...), nil
	default:
		return Topology{}, fmt.Errorf("system: unknown topology descriptor %q", desc)
	}
}
