package core

import (
	"fmt"
	"slices"
	"sort"

	"treejoin/internal/lcrs"
)

// The two-layer subgraph index (§3.4). Subgraphs are first grouped by tree
// size (the inverted lists I_n of Algorithm 1), within a size by a postorder
// position key, and within a position group by the label twig at the
// subgraph root. Probing a node of the current tree touches only the groups
// whose subgraphs could both match at that node and be position-compatible.
//
// # Position keys — corrections to the paper
//
// The paper keys subgraph s_k by its root's postorder identifier p_k and
// argues the identifier shifts by at most ∆ positions under ∆ edit
// operations. Property-testing against the brute-force oracle forced two
// corrections (see DESIGN.md, "Reproduction notes"):
//
//  1. The postorder must be the *general* tree's, not the binary tree's. A
//     single general-tree deletion splices a sibling chain, which rewires
//     binary ancestry and can move whole regions across the binary
//     postorder — the binary position of an untouched subgraph may shift
//     arbitrarily. The general postorder of surviving nodes, by contrast, is
//     preserved verbatim by every node edit operation (delete removes one
//     element of the sequence, insert adds one, rename changes none), so
//     positions shift by at most one per operation. The paper's Figure 7
//     position numbers are general-postorder numbers.
//
//  2. The position must be measured from the *end* of the postorder,
//     r = |T| − p: an edit before an untouched subgraph changes p but not
//     r, and the two trees of a candidate pair may differ in size. Measuring
//     from the end is also what the paper's own |N_k| argument bounds.
//
// With both corrections the sound default (PositionSafe) stores each
// subgraph once, at its exact reverse position r_k, and the probe enumerates
// the window r_k could have moved to. Let the candidate pair's sizes differ
// by d = |probe| − |pattern| and let the mapping use I inserts and D
// deletes; then I − D = d and I + D ≤ τ, so I ≤ ⌊(τ+d)/2⌋ and
// D ≤ ⌊(τ−d)/2⌋. An untouched subgraph whose root maps to probe node N
// satisfies r(N) − r_k ∈ [−D, +I], hence
//
//	r_k ∈ [r(N) − ⌊(τ+d)/2⌋, r(N) + ⌊(τ−d)/2⌋],
//
// a window of τ+1 positions (versus 2τ+1 for the naive ±τ), valid for any
// δ-partitioning.
//
// The paper instead tightens per subgraph rank k, using ∆′(k) = τ − ⌊k/2⌋.
// Its argument assumes an edit operation cannot both invalidate an earlier
// subgraph's match and shift a later subgraph's position, which fails for
// boundary-straddling operations (e.g. deleting a node whose spliced
// children sit in an earlier component). PositionPaper implements the
// formula for benchmarking fidelity; the oracle tests accept its output only
// as a subset of the true result.
type PositionFilter int

const (
	// PositionSafe keys every subgraph by its exact reverse general
	// postorder and probes the size-difference-aware window above: the
	// proven-sound default.
	PositionSafe PositionFilter = iota
	// PositionPaper uses the paper's τ − ⌊k/2⌋ ranges (subgraphs ranked by
	// root postorder). Retained for benchmarking fidelity; can miss results
	// in adversarial corner cases.
	PositionPaper
	// PositionOff disables the position layer entirely (label layer only).
	PositionOff
)

func (m PositionFilter) String() string {
	switch m {
	case PositionSafe:
		return "safe"
	case PositionPaper:
		return "paper"
	case PositionOff:
		return "off"
	default:
		return fmt.Sprintf("PositionFilter(%d)", int(m))
	}
}

// Label twig keys (§3.4, "Label indexing"). The key of a subgraph is the
// label of its root plus one marker per slot: the child's label when the
// child is in-component, slotBridge when the slot is a bridging edge, and
// slotEmpty when the slot is empty. (The paper folds bridge and empty into
// one ε marker; distinguishing them is a strict refinement — an empty slot
// can only match an empty slot — that preserves the probe-key count.)
const (
	slotBridge int32 = -1
	slotEmpty  int32 = -2
)

type twig struct{ root, left, right int32 }

// entry identifies one indexed subgraph: the owning tree (collection index)
// and the component number within that tree's partition.
type entry struct {
	tree int32
	comp int32
}

// group is the second index layer: twig key -> subgraphs.
type group map[twig][]entry

// sizeIndex is one inverted list I_n: reverse-postorder position -> label
// groups. Positions are bounded by the tree size, so a slice replaces the
// map on the hot path.
type sizeIndex struct {
	byPos []group
}

func (si *sizeIndex) atOrCreate(pos int32) group {
	for int(pos) >= len(si.byPos) {
		si.byPos = append(si.byPos, nil)
	}
	if si.byPos[pos] == nil {
		si.byPos[pos] = make(group)
	}
	return si.byPos[pos]
}

// invIndex is the full on-the-fly index of Algorithm 1, one inverted list per
// tree size.
type invIndex struct {
	tau    int
	mode   PositionFilter
	bySize map[int]*sizeIndex
	sizes  []int // the keys of bySize, ascending
}

func newInvIndex(tau int, mode PositionFilter) *invIndex {
	return &invIndex{tau: tau, mode: mode, bySize: make(map[int]*sizeIndex)}
}

// subgraphTwig computes the label twig of component c's root.
func subgraphTwig(p *Partition, c int32) twig {
	b := p.Bin
	root := p.Roots[c]
	tw := twig{root: b.Label(root)}
	tw.left = slotKey(p, c, b.Left(root))
	tw.right = slotKey(p, c, b.Right(root))
	return tw
}

func slotKey(p *Partition, c int32, child int32) int32 {
	switch {
	case child == lcrs.None:
		return slotEmpty
	case p.Comp[child] != c:
		return slotBridge
	default:
		return p.Bin.Label(child)
	}
}

// postorderRanks returns, for each component, its 1-based rank k when the
// components are ordered by the general postorder of their roots (the
// s_1..s_δ numbering the paper's ∆′ formula refers to).
func postorderRanks(p *Partition) []int {
	order := make([]int, p.Delta)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return p.Bin.GenRank[p.Roots[order[a]]] < p.Bin.GenRank[p.Roots[order[b]]]
	})
	ranks := make([]int, p.Delta)
	for k, c := range order {
		ranks[c] = k + 1
	}
	return ranks
}

// insert adds every subgraph of p (a partition of tree treeIdx) to the index.
// It returns the number of (position group × subgraph) entries created, for
// statistics.
func (ix *invIndex) insert(treeIdx int, p *Partition) int64 {
	size := p.Bin.Size()
	si := ix.bySize[size]
	if si == nil {
		si = &sizeIndex{}
		ix.bySize[size] = si
		ix.sizes = slices.Insert(ix.sizes, sort.SearchInts(ix.sizes, size), size)
	}
	var ranks []int
	if ix.mode == PositionPaper {
		ranks = postorderRanks(p)
	}
	var added int64
	for c := 0; c < p.Delta; c++ {
		e := entry{tree: int32(treeIdx), comp: int32(c)}
		tw := subgraphTwig(p, int32(c))
		switch ix.mode {
		case PositionOff:
			g := si.atOrCreate(0)
			g[tw] = append(g[tw], e)
			added++
		case PositionPaper:
			// The paper stores ranges around r_k and probes a point.
			rk := int32(size) - 1 - p.Bin.GenRank[p.Roots[c]]
			slack := int32(ix.tau - ranks[c]/2)
			lo := rk - slack
			if lo < 0 {
				lo = 0
			}
			for v := lo; v <= rk+slack; v++ {
				g := si.atOrCreate(v)
				g[tw] = append(g[tw], e)
				added++
			}
		default: // PositionSafe: store the exact position, probe a window.
			rk := int32(size) - 1 - p.Bin.GenRank[p.Roots[c]]
			g := si.atOrCreate(rk)
			g[tw] = append(g[tw], e)
			added++
		}
	}
	return added
}

// probeKeys materialises the ≤4 twig keys compatible with probe node n: each
// present child may match either a same-label in-component child or a
// bridging slot; an absent child matches only an empty slot.
func probeKeys(b *lcrs.Bin, n int32, keys *[4]twig) int {
	var lopts, ropts [2]int32
	nl, nr := 1, 1
	if l := b.Left(n); l != lcrs.None {
		lopts[0], lopts[1] = b.Label(l), slotBridge
		nl = 2
	} else {
		lopts[0] = slotEmpty
	}
	if r := b.Right(n); r != lcrs.None {
		ropts[0], ropts[1] = b.Label(r), slotBridge
		nr = 2
	} else {
		ropts[0] = slotEmpty
	}
	lab := b.Label(n)
	k := 0
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			keys[k] = twig{root: lab, left: lopts[i], right: ropts[j]}
			k++
		}
	}
	return k
}

// window returns the indexed tree sizes in [minSize, maxSize], ascending:
// only these are probed, so a probe's cost does not grow with the width of
// its size window.
func (ix *invIndex) window(minSize, maxSize int) []int {
	lo := sort.SearchInts(ix.sizes, minSize)
	hi := sort.SearchInts(ix.sizes, maxSize+1)
	return ix.sizes[lo:max(lo, hi)]
}

// probe visits the index entries that are position- and twig-compatible with
// node n of probe tree b, for every indexed tree size in sizes (a window).
// It reports the number of entries visited.
func (ix *invIndex) probe(b *lcrs.Bin, n int32, sizes []int, visit func(entry)) int64 {
	var keys [4]twig
	nk := probeKeys(b, n, &keys)
	r := int32(b.Size()) - 1 - b.GenRank[n]
	var visited int64
	for _, size := range sizes {
		si := ix.bySize[size]
		var lo, hi int32
		switch ix.mode {
		case PositionOff:
			lo, hi = 0, 0
		case PositionPaper:
			lo, hi = r, r // ranges live on the store side
		default: // PositionSafe: size-difference-aware window around r.
			// τ past |b|+size opens the whole window already; clamping
			// first keeps the int32 conversions from wrapping.
			tau := min(ix.tau, b.Size()+size)
			d := b.Size() - size // probe minus pattern size
			lo = r - int32((tau+d)/2)
			hi = r + int32((tau-d)/2)
		}
		if lo < 0 {
			lo = 0
		}
		if m := int32(len(si.byPos)) - 1; hi > m {
			hi = m
		}
		for pos := lo; pos <= hi; pos++ {
			g := si.byPos[pos]
			if g == nil {
				continue
			}
			for k := 0; k < nk; k++ {
				for _, e := range g[keys[k]] {
					visited++
					visit(e)
				}
			}
		}
	}
	return visited
}
