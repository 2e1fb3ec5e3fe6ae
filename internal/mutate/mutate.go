// Package mutate is the registry behind the conformance harness's mutation
// smoke gate: a small set of deliberate, named bugs compiled into the I/O
// libraries only under the `conformance_mutants` build tag, so the harness
// can prove its oracles have teeth (every mutant must be detected within a
// bounded budget — see internal/conformance and DESIGN.md §5e).
//
// In normal builds Enabled is a constant-false function, so every hook of
// the form `if mutate.Enabled(mutate.X) { ... }` is dead code the compiler
// removes; the production binaries are unchanged. Under the tag, exactly
// one mutant is armed at a time via Set, and the gate test walks All.
package mutate

// Mutant identifiers. Each names one deliberate bug wired into a library
// at the site the comment describes.
const (
	// ExtentDroppedCoalesce makes extent.Coalesce keep only the first
	// run's length when merging adjacent or overlapping runs, losing the
	// extension — level-1 flushes ship short payloads.
	ExtentDroppedCoalesce = "extent.dropped-coalesce"
	// ExtentLayoutOwnerSkew offsets equation (1)'s owner rank by one in
	// Layout.Owner only, making it inconsistent with Locate/RankSegment.
	ExtentLayoutOwnerSkew = "extent.layout-owner-skew"
	// TCIOStalePopulate makes a posted population of another owner's
	// segment mark it populated without putting the bytes into that owner's
	// window.
	TCIOStalePopulate = "tcio.stale-populate"
	// TCIOLostPendingRun makes l2meta.addDirty overwrite a segment's
	// pending runs instead of appending, losing earlier undrained data.
	TCIOLostPendingRun = "tcio.lost-pending-run"
	// MPIIOFlattenDropRun makes mpiio's view flattening (datatype.View.Runs)
	// drop the first run of every multi-run request.
	MPIIOFlattenDropRun = "mpiio.flatten-drop-run"
	// StorageDropLastRequest makes the storage layer's serial path drop
	// the last request of every multi-request batch.
	StorageDropLastRequest = "storage.drop-last-request"
	// DelegateDropQueuedFlush makes a delegation server forget the last
	// queued write record when a flush closes the epoch — the bytes a
	// client believes acknowledged never reach the file system.
	DelegateDropQueuedFlush = "delegate.drop-queued-flush"
	// WALSkipCommitMarker makes the WAL writer skip the commit-marker
	// append that seals an epoch: records land but no epoch ever commits,
	// so recovery after a crash silently discards every journaled byte.
	WALSkipCommitMarker = "wal.skip-commit-marker"
	// DelegateCacheStaleServe makes a delegation server's line fill skip
	// the file system read, keeping (and serving) zeroed blocks — the
	// stale-serve bug the block store's coherence rules exist to prevent.
	DelegateCacheStaleServe = "delegate.cache-stale-serve"
)

// All lists every mutant the gate must catch.
func All() []string {
	return []string{
		ExtentDroppedCoalesce,
		ExtentLayoutOwnerSkew,
		TCIOStalePopulate,
		TCIOLostPendingRun,
		MPIIOFlattenDropRun,
		StorageDropLastRequest,
		DelegateDropQueuedFlush,
		WALSkipCommitMarker,
		DelegateCacheStaleServe,
	}
}
