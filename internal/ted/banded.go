// Threshold-aware (τ-banded) Zhang–Shasha over arena views — the one TED
// verifier behind every join, search and streaming method. The similarity
// joins never need an unbounded distance: every candidate pair comes with
// the join threshold τ, and the verifier only has to decide TED ≤ τ —
// exactly when it is, the exact distance is wanted. This file implements
// that tri-state verifier as a banded variant of the DP in zs.go, in the
// spirit of Touzet's k-strip algorithms for similar trees:
//
//   - every forest DP touches only cells within τ of its diagonal (any cell
//     farther out has forest distance > τ by the size argument);
//   - keyroot pairs whose leftmost leaves sit more than τ postorder
//     positions apart are skipped outright (no ≤ τ mapping can use any
//     subtree-pair entry they would produce): each keyroot of one tree
//     binary-searches the other tree's keyroots (pre-sorted by leftmost leaf
//     in the arena) for its τ-window instead of scanning all of them;
//   - a forest DP is abandoned as soon as an entire row of its band exceeds
//     τ (the frontier can never recover — see DESIGN.md, "Verification: one
//     τ-banded kernel" for the correctness argument);
//   - the subtree-distance matrix stores only the diagonal band it can ever
//     touch — |ai−bj| ≤ 2τ, from the keyroot window plus the cell band — in
//     a skewed layout of n1·(4τ+1) int16 cells, so the per-pair sentinel
//     init is O(n1·τ) instead of O(n1·n2);
//   - the forest band is skew-packed with shared sentinel pad cells between
//     adjacent rows, so out-of-band neighbour reads land on a pad instead of
//     being branched around — the inner loop has no band tests;
//   - cells are int16 (distances are capped at τ+1 ≤ maxViewBand+1), and the
//     DP scratch comes from a sync.Pool, so steady-state verification
//     allocates nothing per pair.
//
// The unbounded DP in zs.go remains the oracle; the property tests sweep τ
// and require verdict-and-distance agreement with it.
package ted

import (
	"sync"
	"sync/atomic"

	"treejoin/internal/tree"
)

// Counters instruments the τ-banded verifier. All updates are atomic, so one
// Counters value may be shared by every concurrent verify worker of a join;
// a nil *Counters disables counting. The engine folds these into
// sim.Stats after a run.
type Counters struct {
	// DPAvoided counts candidate pairs settled by the size/label lower
	// bounds alone — full DPs avoided entirely.
	DPAvoided atomic.Int64
	// KeyrootsSkipped counts keyroot-pair forest DPs pruned by the
	// positional (leftmost-leaf distance) skip.
	KeyrootsSkipped atomic.Int64
	// BandAborts counts forest DPs cut short because an entire row of the
	// band exceeded τ.
	BandAborts atomic.Int64
	// StrategyLeft and StrategyRight count candidate pairs whose DP ran
	// under the left-path or right-path (mirrored) decomposition — the
	// per-pair outcomes of the RTED-style strategy choice. Only pairs that
	// reach a DP are counted; pairs settled by the lower bounds never pick.
	StrategyLeft  atomic.Int64
	StrategyRight atomic.Int64
}

func (tc *Counters) addDPAvoided() {
	if tc != nil {
		tc.DPAvoided.Add(1)
	}
}

func (tc *Counters) addKeyrootsSkipped(n int64) {
	if tc != nil && n > 0 {
		tc.KeyrootsSkipped.Add(n)
	}
}

func (tc *Counters) addBandAborts(n int64) {
	if tc != nil && n > 0 {
		tc.BandAborts.Add(n)
	}
}

func (tc *Counters) addStrategy(dec Decomp) {
	if tc == nil {
		return
	}
	if dec == DecompLeft {
		tc.StrategyLeft.Add(1)
	} else {
		tc.StrategyRight.Add(1)
	}
}

// Decomp selects the decomposition the arena verifier runs: the per-pair
// strategy-driven default, or a forced direction for ablation benchmarks and
// the property tests.
type Decomp int

const (
	DecompAuto  Decomp = iota // pick per pair from the strategy costs
	DecompLeft                // force the left-path decomposition
	DecompRight               // force the right-path (mirrored) decomposition
)

// chooseDecomp is the RTED-style per-pair strategy rule: run the left-path
// decomposition iff the product of the trees' left costs does not exceed the
// product of their right costs (the product bounds the total DP work of the
// pair under each decomposition).
func chooseDecomp(aCostL, aCostR, bCostL, bCostR int64) Decomp {
	if aCostL*bCostL <= aCostR*bCostR {
		return DecompLeft
	}
	return DecompRight
}

// labelBoundExceeds reports whether the label lower bound — max(|a|,|b|)
// minus the size of the multiset intersection of the sorted label slices a
// and b — exceeds tau, without always finishing the merge: the verdict is
// returned as soon as the matched count reaches max(|a|,|b|)−tau (the bound
// can no longer exceed tau) or the remaining elements cannot reach it (the
// bound certainly does).
func labelBoundExceeds(a, b []int32, tau int) bool {
	m := len(a)
	if len(b) > m {
		m = len(b)
	}
	need := m - tau // matches required for the bound to stay ≤ tau
	if need <= 0 {
		return false
	}
	i, j := 0, 0
	for {
		ra, rb := len(a)-i, len(b)-j
		if rb < ra {
			ra = rb
		}
		if ra < need {
			return true
		}
		// need ≥ 1 and min(remaining) ≥ need, so both sides are non-empty.
		switch {
		case a[i] == b[j]:
			i++
			j++
			need--
			if need == 0 {
				return false
			}
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
}

// maxViewBand bounds the band half-width of the int16 kernel (cell values
// reach 2·(τ+1), which must fit in int16). A pair whose clamped band exceeds
// it — τ beyond 16000 on trees at least that large — is decided by
// distanceUnbanded instead; no paper-scale workload comes near this.
const maxViewBand = 16000

// distanceUnbanded decides TED(a, b) ≤ tau with the unbounded Zhang–Shasha
// DP (Distance) compared against tau, under the same tri-state contract as
// DistanceBoundedView. It is the int16 kernel's fallback for bands wider
// than maxViewBand.
func distanceUnbanded(a, b *tree.Tree, tau int) (int, bool) {
	if d := Distance(a, b); d <= tau {
		return d, true
	}
	return tau + 1, false
}

// VerifyScratch is the reusable DP memory of the arena verifier: the
// band-packed subtree-distance matrix and the skew-packed forest band with
// its sentinel pads. One scratch serves one verify worker across a whole
// batch of candidates; AcquireScratch/ReleaseScratch pool them so
// steady-state batched verification allocates nothing per pair.
type VerifyScratch struct {
	td []int16
	fd []int16
	// win gathers one outer keyroot's τ-window of inner keyroots (found in
	// lml order, re-sorted to postorder before the DPs run); path holds one
	// inner keyroot's decomposition path, the forest positions where
	// tree-tree cells occur.
	win  []int32
	path []int32
	// tpl is the common-prefix-skip row template [bt, …, 1, 0, 1, …, bt]:
	// row di of a skipped wedge holds |di−dj| across its band, which is this
	// sequence shifted to the diagonal, so the fill is a copy per row.
	tpl []int16
	// padBt and padLen record the band half-width baked into fd's sentinel
	// pads and how far the pads are written, so consecutive pairs at one τ
	// skip the refill.
	padBt  int
	padLen int
}

var verifyScratchPool = sync.Pool{New: func() any { return &VerifyScratch{padBt: -1} }}

// AcquireScratch takes a verify scratch from the pool.
func AcquireScratch() *VerifyScratch { return verifyScratchPool.Get().(*VerifyScratch) }

// ReleaseScratch returns a scratch obtained from AcquireScratch.
func ReleaseScratch(s *VerifyScratch) { verifyScratchPool.Put(s) }

// ensureView sizes the scratch for one pair and (re)writes fd's constant
// cells when the band width changed or the buffer grew:
//
//   - the pad cells — every multiple of the skewed stride 2·bt+2 holds the
//     sentinel — that out-of-band neighbour reads land on;
//   - the DP boundary row and column, fd(0,dj)=dj and fd(di,0)=di for
//     di,dj ≤ bt, which depend on bt alone.
//
// No DP ever overwrites any of these (in-band writes start at row 1, column 1,
// and stay strictly inside their row block), so a run of same-τ pairs pays for
// the fill once and every individual forest DP starts with zero setup.
func (s *VerifyScratch) ensureView(tdLen, fdLen, bt int, over int16) {
	if cap(s.td) < tdLen {
		s.td = make([]int16, tdLen)
	} else {
		s.td = s.td[:tdLen]
	}
	if cap(s.fd) < fdLen {
		s.fd = make([]int16, fdLen)
		s.padBt = -1
	} else {
		s.fd = s.fd[:fdLen]
	}
	if s.padBt == bt && s.padLen >= fdLen {
		return
	}
	stride := 2*bt + 2
	for k := 0; k < fdLen; k += stride {
		s.fd[k] = over
	}
	// Boundary row: cell (0, dj) sits at offset bt+1+dj of block 0 (always
	// inside the buffer — a block is 2bt+2 cells and dj ≤ bt).
	for dj := 0; dj <= bt; dj++ {
		s.fd[bt+1+dj] = int16(dj)
	}
	// Boundary column: cell (di, 0) sits at offset bt+1−di of block di, for
	// the blocks that exist (di can exceed the smaller tree's size).
	for di := 1; di <= bt && di*stride+bt+1-di < fdLen; di++ {
		s.fd[di*stride+bt+1-di] = int16(di)
	}
	if cap(s.tpl) < 2*bt+1 {
		s.tpl = make([]int16, 2*bt+1)
	} else {
		s.tpl = s.tpl[:2*bt+1]
	}
	for k := range s.tpl {
		v := k - bt
		if v < 0 {
			v = -v
		}
		s.tpl[k] = int16(v)
	}
	s.padBt, s.padLen = bt, fdLen
}

// DistanceBoundedView reports whether TED(a, b) ≤ tau from arena views: the
// size and label lower bounds run first (no DP at all when either proves the
// pair distant), then the strategy-chosen decomposition's band-compacted DP.
// The tri-state contract: on true the returned distance is exact; on false
// the distance is only known to exceed tau and tau+1 is returned. The
// property tests require verdict-and-distance agreement with the unbounded
// oracle. tc, when non-nil, accumulates the verifier's pruning counters. The
// caller owns the scratch (one per worker, from AcquireScratch), which is
// what makes a batched verify loop allocation-free. Both trees must share one
// LabelTable.
func DistanceBoundedView(a, b *TreeView, tau int, s *VerifyScratch, tc *Counters) (int, bool) {
	return DistanceBoundedViewDecomp(a, b, tau, DecompAuto, s, tc)
}

// DistanceBoundedViewDecomp is DistanceBoundedView with the decomposition
// forced (DecompLeft/DecompRight) or strategy-driven (DecompAuto). Forced
// directions back the strategy-ablation benchmarks; results are identical in
// every mode.
func DistanceBoundedViewDecomp(a, b *TreeView, tau int, dec Decomp, s *VerifyScratch, tc *Counters) (int, bool) {
	if a.T.Labels != b.T.Labels {
		panic("ted: trees must share a label table")
	}
	if tau < 0 {
		return tau + 1, false
	}
	n1, n2 := len(a.Labels), len(b.Labels)
	if d := n1 - n2; d > tau || -d > tau {
		tc.addDPAvoided()
		return tau + 1, false
	}
	if labelBoundExceeds(a.SortedLabels, b.SortedLabels, tau) {
		tc.addDPAvoided()
		return tau + 1, false
	}
	// All distances are ≤ n1+n2, so the band never needs to be wider.
	bt := tau
	if bt > n1+n2 {
		bt = n1 + n2
	}
	if bt > maxViewBand {
		return distanceUnbanded(a.T, b.T, tau)
	}
	if dec == DecompAuto {
		dec = chooseDecomp(a.CostL, a.CostR, b.CostL, b.CostR)
	}
	tc.addStrategy(dec)
	if dec == DecompLeft {
		return bandedView(a.Labels, a.Lml, a.Keyroots, b.Labels, b.Lml, b.Parent, b.Keyroots, b.KrByLml, tau, bt, s, tc)
	}
	return bandedView(a.RLabels, a.Rml, a.RKeyroots, b.RLabels, b.Rml, b.RParent, b.RKeyroots, b.RKrByLml, tau, bt, s, tc)
}

// bandedView runs the band-compacted DP over one decomposition's arrays.
// Both keyroot loops walk ascending postorder, as the DP's data dependencies
// require: the sub-case of pair (i, j) reads subtree entries written under
// pairs (k1, k2) with k1 < i, or k1 = i and k2 < j (subtree intervals are
// laminar, so an inner keyroot precedes the outer one in postorder).
// Per outer keyroot, the τ-window of inner keyroots — the ones the positional
// skip keeps — is located by binary search in bkrByLml
// (the same keyroots sorted by ascending leftmost leaf), gathered, and
// re-sorted to postorder, so the cost per outer keyroot is proportional to
// its window, not to the inner keyroot count.
func bandedView(al, alml, akr []int32, bl, blml, bpar, bkr, bkrByLml []int32, tau, bt int, s *VerifyScratch, tc *Counters) (int, bool) {
	n1, n2 := len(al), len(bl)
	over := int16(bt) + 1
	tdStride := 4*bt + 1
	tdLen := n1 * tdStride
	fdLen := (n1+1)*(2*bt+2) + 1
	s.ensureView(tdLen, fdLen, bt, over)
	td, fd := s.td, s.fd
	for i := range td {
		td[i] = over
	}
	t32 := int32(bt)
	nb := len(bkr)
	var skipped, aborts int64
	for _, i := range akr {
		li := alml[i]
		// τ-window gather: binary-search the first b-keyroot with lml ≥ li−τ
		// in lml order, walk forward while lml ≤ li+τ. The window holds every
		// inner keyroot the positional skip keeps — on filtered workloads
		// that is a handful out of all of them — so the skipped count is the
		// complement in one subtraction, with no scan.
		wlo, whi := 0, nb
		for wlo < whi {
			mid := int(uint(wlo+whi) >> 1)
			if blml[bkrByLml[mid]] < li-t32 {
				wlo = mid + 1
			} else {
				whi = mid
			}
		}
		whi = wlo
		for whi < nb && blml[bkrByLml[whi]]-li <= t32 {
			whi++
		}
		w := whi - wlo
		skipped += int64(nb - w)
		if w == 0 {
			continue
		}
		if cap(s.win) < w {
			s.win = make([]int32, w+2*bt+1)
		}
		win := s.win[:w]
		copy(win, bkrByLml[wlo:whi])
		// The DPs must run in ascending postorder (the sub-case of (i, j)
		// reads entries written under earlier pairs); re-sort the lml-ordered
		// window. Windows are tiny — at most the keyroots of 2τ+1 positions —
		// so insertion sort beats anything with a dispatch cost.
		for x := 1; x < w; x++ {
			v := win[x]
			y := x - 1
			for y >= 0 && win[y] > v {
				win[y+1] = win[y]
				y--
			}
			win[y+1] = v
		}
		// Degenerate DPs — a leaf keyroot on either side — dominate the DP
		// count on real keyroot sets (every leaf is its own keyroot). Their
		// grids are a single row or column whose deletion, insertion, and
		// sub-case sources are boundary constants or subtree entries, so they
		// run as register chains with no forest scratch at all; only pairs
		// with two non-trivial subtrees reach the general banded DP.
		m := int(i-li) + 1
		for _, j := range win {
			lj := blml[j]
			var ok bool
			switch {
			case m == 1 && j == lj:
				// Leaf against leaf: the lone in-band cell is the relabel
				// cost (insertion and deletion chains cost 2 and never win).
				var v int16
				if al[i] != bl[j] {
					v = 1
				}
				if ok = v < over; ok {
					td[int(i)*4*bt+2*bt+int(j)] = v
				}
			case m == 1:
				ok = bandedViewRow(al, bl, blml, i, j, bt, over, td)
			case j == lj:
				ok = bandedViewCol(al, alml, bl, i, j, bt, over, td)
			default:
				ok = bandedViewDP(al, alml, bl, blml, bpar, i, j, bt, over, td, fd, s)
			}
			if !ok {
				aborts++
			}
		}
	}
	tc.addKeyrootsSkipped(skipped)
	tc.addBandAborts(aborts)
	if d := td[(n1-1)*tdStride+(n2-1)-(n1-1)+2*bt]; d < over {
		return int(d), true
	}
	return tau + 1, false
}

// bandedViewDP is one keyroot pair's forest DP over the packed layouts.
//
// Forest band: cell (di, dj) lives at di·(2bt+1) + dj + bt + 1 — row blocks
// of stride 2bt+2 whose boundary cells (the multiples of the stride) are
// sentinel pads shared between adjacent rows. The deletion read (di−1, dj)
// at idx−(2bt+1), the insertion read (di, dj−1) at idx−1, and the diagonal
// read at idx−(2bt+2) each land either on an in-band cell or exactly on a
// pad, so the inner loop needs no band tests: an out-of-band neighbour
// contributes the sentinel and loses the min.
//
// Subtree band: entry (ai, bj) lives at ai·(4bt+1) + (bj−ai) + 2bt; every
// read and write satisfies |ai−bj| ≤ 2bt (keyroot window plus cell band), so
// the rows pack without collision.
//
// Two row bodies. A tree row (x = 0: the row node sits on the outer
// keyroot's decomposition path) needs no sub-case gather at all — its source
// row is the constant boundary fd(0, y) = y, so the candidate is y plus the
// subtree entry, computed in registers; its y = 0 cells (forest positions on
// the inner keyroot's path — where blml equals the inner decomposition leaf)
// take the tree-tree candidate (diagonal + relabel cost) folded straight
// into the min, and store the subtree entry. Folding is exact: carrying the
// patched value onward in `left` is the insertion-chain propagation the
// two-pass form re-ran after the fact (min distributes over the chain), so
// cell values, rowMin, and the abort behaviour are unchanged. A sub-forest
// row (x > 0) keeps the gathered sub-case read and can skip the y test —
// the tree-tree candidate never applies there.
func bandedViewDP(al, alml []int32, bl, blml, bpar []int32, i, j int32, bt int, over int16, td, fd []int16, s *VerifyScratch) bool {
	stride := 2*bt + 2
	li, lj := alml[i], blml[j]
	m, n := int(i-li)+1, int(j-lj)+1
	clj := li - lj + int32(bt)
	t32 := int32(bt)
	// Global band. Any mapping of cost ≤ τ is a monotone alignment of the two
	// postorder sequences, so every boundary it induces — in every forest DP
	// of the keyroot hierarchy — has global offset |ai − bj| =
	// |(di−dj) + (li−lj)| ≤ (deletions so far) + (insertions so far) ≤ τ.
	// Intersecting that with the local size band |di−dj| ≤ τ narrows this
	// DP's rows from half-width bt to btL = bt−max(δ,0) on the left and
	// btR = bt+min(δ,0) on the right, where δ = li−lj is the keyroot pair's
	// leaf offset: width 2bt+1−|δ| instead of 2bt+1. Cells outside the
	// narrow band are never on a ≤ τ chain, so holding them at the sentinel
	// preserves every exact value the verifier reports; each row writes one
	// sentinel past its right edge so the next row's deletion read — and any
	// later sub-case read, which tests the narrow band — never sees a stale
	// cell of the wide band. Reads that land on persisted boundary cells or
	// prefix-skip wedge rows outside the narrow band are harmless the other
	// way: those hold exact (not stale) values.
	delta := int(li - lj)
	btL, btR := bt, bt
	dLo := 0
	if delta > 0 {
		btL -= delta
		dLo = delta
	} else {
		btR += delta
	}
	span := uint32(btL + btR)
	// Common-prefix skip. Let P be the length of the longest common prefix
	// of the two forests' local postorders (equal labels and equal local
	// leftmost-leaf offsets — the lml array determines forest shape). Then:
	//
	//   - an in-band cell fd(di, dj) with di ≤ P is the distance between two
	//     prefixes of identical forests, which is exactly |di−dj| (the size
	//     lower bound, achieved by deleting the postorder tail; the diagonal
	//     chain plus row/column steps realise it inside the band) — so rows
	//     1..P need no computation: each is a copy of the |·−bt| template.
	//     All of them are filled, not only row P, because any later row may
	//     read row x = lml(ai)−li ≤ P as its sub-case source;
	//   - a subtree entry (sa, sb) in local path positions with sa ≤ P−1
	//     compares a subtree inside the common prefix against a subtree on
	//     the other path; path subtrees are nested, so the distance is
	//     exactly |sa−sb| — all entries the skipped rows would have written
	//     (the in-window, in-band ones) are stored in O(1) each. Path
	//     positions ≤ P−1 coincide between the two forests, so one walk of
	//     the inner keyroot's path enumerates both sides.
	//
	// The skipped rows always carry fd(di, di) = 0 on their frontier, so
	// they can never trigger the row abort: abort behaviour, every later
	// cell, and every counter are bit-identical to the unskipped DP. On
	// near-duplicate candidate pairs — the ones a τ-join actually verifies —
	// identical subtree pairs run no rows at all.
	maxP := m
	if n < maxP {
		maxP = n
	}
	dl := li - lj
	P := 0
	for P < maxP && al[li+int32(P)] == bl[lj+int32(P)] && alml[li+int32(P)]-blml[lj+int32(P)] == dl {
		P++
	}
	if P > 0 {
		// The fast entry writes enumerate path positions up to P−1+bt (the
		// outer side stops at P−1, the inner at most bt beyond it), so the
		// decomposition path — the parent chain of lj — is only built that
		// far, and only when a prefix exists at all.
		path := s.path[:0]
		pcap := int32(P-1) + t32
		for p := lj; p >= 0 && p <= j && p-lj <= pcap; p = bpar[p] {
			path = append(path, p)
		}
		s.path = path
		np := len(path)
		tlo := 0
		for ta := 0; ta < np; ta++ {
			sa := path[ta] - lj
			if int(sa) > P-1 {
				break
			}
			for tlo < np && path[tlo]-lj < sa-t32 {
				tlo++
			}
			rowB := int(li+sa)*4*bt + 2*bt
			for tb := tlo; tb < np; tb++ {
				d := path[tb] - lj - sa
				if d > t32 {
					break
				}
				if d < 0 {
					d = -d
				}
				td[rowB+int(path[tb])] = int16(d)
			}
		}
		// Row di's in-band cells sit at fd[di·(2bt+1)+dj+bt+1] for
		// dj ∈ [di−bt, di+bt] — contiguous between the row's pads — and hold
		// |di−dj|: the template shifted so its zero lands on the diagonal,
		// clamped to the valid columns [0, n].
		for di := 1; di <= P; di++ {
			djlo := di - bt
			if djlo < 0 {
				djlo = 0
			}
			djhi := di + bt
			if djhi > n {
				djhi = n
			}
			dst := di*(stride-1) + djlo + bt + 1
			copy(fd[dst:dst+djhi-djlo+1], s.tpl[djlo-di+bt:])
		}
	}
	diStart := P + 1
	// Per-row window bounds and array bases advance incrementally: row di
	// covers columns [lo, hi] = [max(1, di−bt), min(n, di+bt)], its cells
	// start at fd offset di·(2bt+1)+lo−bt−1, its subtree-entry row at
	// td offset ai·4bt+2bt+(lj+lo−1) — all linear in di and lo.
	lo := diStart - btL
	if lo < 1 {
		lo = 1
	}
	rwBase := diStart*(stride-1) + lo - bt - 1
	bOff := int(lj) + lo - 1
	tdBase := int(li+int32(diStart)-1)*4*bt + 2*bt + bOff
	ljI, btI, overI := int(lj), bt, int(over)
	for di := diStart; di <= m; di++ {
		ai := li + int32(di) - 1
		aLml := alml[ai]
		rowMin := overI
		if di <= btL {
			// Cell (di, 0) is the boundary value di, in band: it belongs to
			// the row frontier.
			rowMin = di
		}
		hi := di + btR
		if hi > n {
			hi = n
		}
		if hi < lo {
			// The whole row is right of the band: the frontier is sentinel.
			return false
		}
		cnt := hi - lo + 1
		// rw spans the previous and the current row block plus one sentinel
		// slot: the diagonal neighbour of cell k is rw[k], the deletion
		// neighbour rw[k+1], the cell itself rw[stride+k]; the insertion
		// neighbour rides along in `left` (seeded from the boundary cell when
		// the window still touches column 1, sentinel once the narrow band has
		// moved past it).
		rw := fd[rwBase : rwBase+stride+cnt+1]
		browLml := blml[bOff : bOff+cnt]
		tdRow := td[tdBase : tdBase+cnt] // all row cells satisfy |ai−bj| ≤ 2bt
		left := overI
		if lo == 1 {
			left = int(rw[stride-1])
		}
		if aLml == li {
			// Tree row: the sub-case source is the constant boundary row
			// fd(0, y) = y (block 0, offset y+bt+1; its pad when y is out of
			// band), and the tree-tree candidate applies exactly at y = 0
			// cells — folded in branchlessly by adding a penalty that makes
			// it lose everywhere else, with the entry store steered to the
			// sink cell off-path. Every select below is a conditional move,
			// not a branch: the y pattern is data-dependent and would miss.
			aLabel := al[ai]
			for k := 0; k < cnt; k++ {
				v := left
				if d := int(rw[k+1]); d < v {
					v = d
				}
				v++
				if y := int(browLml[k]) - ljI; y == 0 {
					tv := int(rw[k])
					if bl[bOff+k] != aLabel {
						tv++
					}
					if tv < v {
						v = tv
					}
					if v > overI {
						v = overI
					}
					td[tdBase+k] = int16(v)
				} else {
					if y <= btI {
						if sv := y + int(tdRow[k]); sv < v {
							v = sv
						}
					}
					if v > overI {
						v = overI
					}
				}
				if v < rowMin {
					rowMin = v
				}
				rw[stride+k] = int16(v)
				left = v
			}
		} else {
			// Sub-forest row: gathered sub-case read from the fixed source
			// row x = aLml−li. With yb = y − (x−bt), the band guard is
			// 0 ≤ yb ≤ 2bt and cell (x, y) sits at offset yb+1 of block x;
			// an out-of-band cell reads the block's pad (offset 0) instead —
			// the sentinel, which loses.
			xrow := fd[int(aLml-li)*stride : int(aLml-li)*stride+stride]
			c := int(clj - aLml)
			for k := 0; k < cnt; k++ {
				v := left
				if d := int(rw[k+1]); d < v {
					v = d
				}
				v++
				idx := int(browLml[k]) + c + 1
				if uint32(idx-1-dLo) > span {
					idx = 0
				}
				if sv := int(xrow[idx]) + int(tdRow[k]); sv < v {
					v = sv
				}
				if v > overI {
					v = overI
				}
				if v < rowMin {
					rowMin = v
				}
				rw[stride+k] = int16(v)
				left = v
			}
		}
		// Seal the narrow band: the next row's deletion read at its right edge
		// lands one past this row's window, which the wide-band layout would
		// leave stale. (When the window is flush with the wide band this slot
		// is the row's pad and the write is a no-op.)
		rw[stride+cnt] = over
		if rowMin >= overI {
			return false
		}
		if di > btL {
			lo++
			bOff++
			rwBase += stride
			tdBase += 4*bt + 1
		} else {
			rwBase += stride - 1
			tdBase += 4 * bt
		}
	}
	return true
}

// bandedViewRow is the m == 1 degenerate of bandedViewDP: the outer keyroot
// is a leaf, so the grid is one tree row whose deletion source is the
// constant boundary row fd(0, dj) = dj and whose sub-case reads are subtree
// entries of the row itself. Nothing needs the forest scratch — the
// insertion chain rides in a register — and the td writes, the frontier
// minimum, and the abort verdict are exactly the general kernel's. (When the
// leaf labels match, the general kernel takes its prefix-skip branch
// instead; the plain row computes the same values — cell (1,1) is 0 and the
// insertion chain reproduces the exact path-pair distances dj−1 — so the
// outputs coincide.)
func bandedViewRow(al, bl, blml []int32, i, j int32, bt int, over int16, td []int16) bool {
	lj := blml[j]
	n := int(j-lj) + 1
	hi := 1 + bt
	if hi > n {
		hi = n
	}
	overI := int(over)
	rowMin := overI
	if bt >= 1 {
		rowMin = 1 // fd(1, 0) = 1 sits in band
	}
	left := overI
	if bt >= 1 {
		left = 1 // seeded boundary column fd(1, 0)
	}
	aLabel := al[i]
	ljI := int(lj)
	tdRow := td[int(i)*4*bt+2*bt+ljI:] // entry (i, lj+k) at tdRow[k]
	for k := 0; k < hi; k++ {
		v := left
		if k < bt { // deletion source fd(0, k+1) is in band iff k+1 ≤ bt
			if d := k + 1; d < v {
				v = d
			}
		}
		v++
		if y := int(blml[ljI+k]) - ljI; y == 0 {
			tv := k // diagonal fd(0, k) = k, always in band (k ≤ bt)
			if bl[ljI+k] != aLabel {
				tv++
			}
			if tv < v {
				v = tv
			}
			if v > overI {
				v = overI
			}
			tdRow[k] = int16(v)
		} else {
			if y <= bt {
				if sv := y + int(tdRow[k]); sv < v {
					v = sv
				}
			}
			if v > overI {
				v = overI
			}
		}
		if v < rowMin {
			rowMin = v
		}
		left = v
	}
	return rowMin < overI
}

// bandedViewCol is the n == 1 degenerate of bandedViewDP: the inner keyroot
// is a leaf, so every in-band cell sits in column 1 with the leaf as its
// b-node (trivially on the inner path). The insertion source is the boundary
// column fd(di, 0) = di, the deletion chain rides in a register, and a
// forest row's sub-case pairs the boundary constant fd(x, 0) = x with the
// subtree entry td(ai, j) — again no forest scratch. Rows past 1+bt fall
// outside the band; the general kernel aborts there with hi < lo, and this
// path returns the same verdict after storing the same entries.
func bandedViewCol(al, alml, bl []int32, i, j int32, bt int, over int16, td []int16) bool {
	li := alml[i]
	m := int(i-li) + 1
	rows := m
	if bt+1 < rows {
		rows = bt + 1
	}
	overI := int(over)
	up := overI
	if bt >= 1 {
		up = 1 // boundary row fd(0, 1)
	}
	bLabel := bl[j]
	jI := int(j)
	for di := 1; di <= rows; di++ {
		ai := li + int32(di) - 1
		v := up
		if di <= bt && di < v { // insertion source fd(di, 0)
			v = di
		}
		v++
		if x := int(alml[ai] - li); x == 0 {
			tv := di - 1 // diagonal fd(di−1, 0), in band (di−1 ≤ bt)
			if al[ai] != bLabel {
				tv++
			}
			if tv < v {
				v = tv
			}
			if v > overI {
				v = overI
			}
			td[int(ai)*4*bt+2*bt+jI] = int16(v)
		} else {
			if x <= bt {
				if sv := x + int(td[int(ai)*4*bt+2*bt+jI]); sv < v {
					v = sv
				}
			}
			if v > overI {
				v = overI
			}
		}
		// Rows at depth ≤ bt keep fd(di, 0) = di < over in band, so only the
		// final in-band row can trip the frontier abort.
		if di > bt && v >= overI {
			return false
		}
		up = v
	}
	return rows == m
}
