// Package treejoin implements scalable similarity joins over tree-structured
// data under the tree edit distance (TED), reproducing Tang, Cai and
// Mamoulis, "Scaling Similarity Joins over Tree-Structured Data", PVLDB
// 8(11), 2015.
//
// Given a collection of rooted ordered labeled trees (XML documents, parse
// trees, RNA secondary structures, ...) and a distance threshold τ, the join
// reports every pair of trees within TED τ. The default method is the
// paper's PartSJ: each tree's left-child/right-sibling binary representation
// is decomposed into 2τ+1 balanced subgraphs, and a pair can be similar only
// if one tree contains a subgraph of the other — a filter served by an
// in-memory two-layer index built on the fly, with exact TED verification
// (an RTED-style hybrid of Zhang–Shasha strategies) only for surviving
// candidates. The baselines the paper compares against (STR traversal-string
// lower bounds and SET binary-branch distance) are included for comparison,
// as are the survey's other filters (HIST statistics histograms, EUL Euler
// strings) and a brute-force oracle.
//
// The primary entry point is the Corpus: construct it over a collection,
// then run the whole query family off it — thresholded self and cross joins
// (SelfJoin, Join), similarity search (Search), top-k closest pairs (TopK),
// k-nearest neighbours (KNN), and a streaming join with inserts, deletes and
// updates (Incremental). The corpus is fully dynamic: Add and Remove mutate
// it in place under epoch-versioned copy-on-write snapshots, keeping cached
// signatures, search indexes, and token inverted indexes live (removals
// tombstone and compact) while in-flight queries stay consistent. The corpus
// caches every per-tree filter signature the first query computes, so later
// queries — at any threshold, with any method — skip that work; every query
// takes a context for cancellation, and the Seq variants stream verified
// pairs with constant result memory. The original free functions (SelfJoin, Join,
// NewIndex, TopK, NewKNN) remain as deprecated one-shot wrappers.
//
// Also here: subtree search inside one large tree (SubtreeSearch), exact
// (Distance), bounded (DistanceWithin), weighted (DistanceWithCosts), and
// constrained (ConstrainedDistance) distances, and structural diffs
// (EditScript, Mapping, Transform) on top. Trees parse from bracket, XML,
// Newick, and RNA dot-bracket notation and persist in a compact binary
// dataset format.
//
// # Quick start
//
//	lt := treejoin.NewLabelTable()
//	docs := []*treejoin.Tree{
//		treejoin.MustParseBracket("{album{title{Blue}}{year{1971}}}", lt),
//		treejoin.MustParseBracket("{album{title{Blue!}}{year{1971}}}", lt),
//	}
//	corpus, err := treejoin.NewCorpus(docs)
//	if err != nil { ... }
//	pairs, _, err := corpus.SelfJoin(ctx, 1)
//	// pairs == [{I:0 J:1 Dist:1}]
//
// All trees joined together must share one LabelTable; NewCorpus checks.
package treejoin

import (
	"io"

	"treejoin/internal/sim"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Tree is a rooted ordered labeled tree; the root is node 0. Trees are
// immutable after construction and safe to share across goroutines.
type Tree = tree.Tree

// LabelTable interns node labels. Every collection of trees to be joined
// shares one table.
type LabelTable = tree.LabelTable

// Builder constructs trees node by node.
type Builder = tree.Builder

// Node is a single tree node (label and structure links).
type Node = tree.Node

// Pair is one join result: tree indices I < J with TED Dist ≤ τ.
type Pair = sim.Pair

// Stats reports where a join spent its time (candidate generation versus TED
// verification), the PartSJ filter counters, and — when the join ran a
// filter pipeline — per-stage attribution in Stages.
type Stats = sim.Stats

// StageStats attributes filtering work to one pipeline stage: how many pairs
// it was offered and how many it killed (see WithPrefilter).
type StageStats = sim.StageStats

// XMLOptions controls XML-to-tree conversion.
type XMLOptions = tree.XMLOptions

// CollectionStats summarises the shape of a tree collection.
type CollectionStats = tree.Stats

// None marks the absence of a node reference in Node link fields.
const None = tree.None

// NewLabelTable returns an empty label table.
func NewLabelTable() *LabelTable { return tree.NewLabelTable() }

// NewBuilder returns a tree builder interning labels into lt (a fresh table
// if lt is nil).
func NewBuilder(lt *LabelTable) *Builder { return tree.NewBuilder(lt) }

// ParseBracket parses the bracket notation of the TED literature, e.g.
// "{a{b}{c{d}}}".
func ParseBracket(s string, lt *LabelTable) (*Tree, error) { return tree.ParseBracket(s, lt) }

// MustParseBracket is ParseBracket but panics on error.
func MustParseBracket(s string, lt *LabelTable) *Tree { return tree.MustParseBracket(s, lt) }

// FormatBracket renders t in bracket notation; the output is canonical and
// round-trips through ParseBracket.
func FormatBracket(t *Tree) string { return tree.FormatBracket(t) }

// ParseXML reads one XML document and returns its tree representation.
func ParseXML(r io.Reader, lt *LabelTable, opts XMLOptions) (*Tree, error) {
	return tree.ParseXML(r, lt, opts)
}

// ParseXMLString is ParseXML over a string.
func ParseXMLString(s string, lt *LabelTable, opts XMLOptions) (*Tree, error) {
	return tree.ParseXMLString(s, lt, opts)
}

// Measure computes collection statistics (sizes, depths, labels, fanout).
func Measure(ts []*Tree) CollectionStats { return tree.Measure(ts) }

// Canonicalize returns a copy of t with every sibling group sorted into a
// canonical, permutation-invariant order (labels alphabetically, structure
// as tiebreak). Canonicalising a collection first makes the ordered-tree
// joins and searches treat sibling order as meaningless — the right setting
// for attribute lists, data-centric XML, and other unordered records. TED
// between canonical forms approximates the unordered edit distance (exact
// at 0; exact unordered TED is intractable).
func Canonicalize(t *Tree) *Tree { return tree.Canonicalize(t) }

// EqualUnordered reports whether a and b are equal as unordered trees: the
// same label and the same multiset of child subtrees, recursively, at every
// node.
func EqualUnordered(a, b *Tree) bool { return tree.EqualUnordered(a, b) }

// Distance returns the exact tree edit distance between a and b under the
// unit cost model, choosing the cheaper Zhang–Shasha decomposition from the
// tree shapes (the RTED idea). Both trees must share a label table.
func Distance(a, b *Tree) int { return ted.Distance(a, b) }

// DistanceWithin reports whether TED(a, b) ≤ tau; when it is, the returned
// distance is exact, otherwise it is some value greater than tau. The
// computation is threshold-aware throughout: size and label lower bounds
// short-circuit it entirely, and the DP itself is τ-banded with early
// termination (see DESIGN.md, "Verification: one τ-banded kernel").
func DistanceWithin(a, b *Tree, tau int) (int, bool) { return ted.DistanceBounded(a, b, tau) }
