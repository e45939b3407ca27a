package ted

import "treejoin/internal/tree"

// Prep is the per-tree verifier preparation under its pre-arena name: the
// arena view. Kept for the perfbench module, which compiles against it.
type Prep = TreeView

// NewPrep builds the single-tree arena view of t. Kept for the perfbench
// module.
func NewPrep(t *tree.Tree) *Prep { return BuildViews([]*tree.Tree{t})[0] }

// DistanceBoundedPrep is DistanceBoundedView with a pooled scratch buffer.
// Kept for the perfbench module.
func DistanceBoundedPrep(a, b *Prep, tau int, tc *Counters) (int, bool) {
	s := AcquireScratch()
	defer ReleaseScratch(s)
	return DistanceBoundedView(a, b, tau, s, tc)
}
