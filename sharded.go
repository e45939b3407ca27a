package treejoin

// ShardedCorpus is the former name of the server's corpus type, now plain
// Corpus: inside one process the data-partitioned fan-out only added work,
// so it was removed (see DESIGN.md, "Serving (treejoind)").
//
// Deprecated: use Corpus. Kept for the perfbench module, which compiles
// against it.
type ShardedCorpus = Corpus

// NewSharded returns NewCorpus(ts, opts...); n is ignored.
//
// Deprecated: use NewCorpus. Kept for the perfbench module.
func NewSharded(n int, ts []*Tree, opts ...Option) (*ShardedCorpus, error) {
	return NewCorpus(ts, opts...)
}

// OpenSharded returns Open(dir, opts...); n is ignored.
//
// Deprecated: use Open. Kept for the perfbench module.
func OpenSharded(dir string, n int, opts ...Option) (*ShardedCorpus, error) {
	return Open(dir, opts...)
}
