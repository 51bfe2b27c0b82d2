package core

// The application contract: what a synchronous iterative algorithm must
// provide to run under the speculative engine, plus the optional extensions
// (publishing, neighbor restriction, incremental correction, convergence
// stopping, domain-specific speculation) an app may implement to specialize
// how the engine speculates, repairs and terminates.

// CheckResult reports the outcome of validating one speculated message.
type CheckResult struct {
	Bad   int     // check units out of tolerance
	Total int     // check units examined
	Ops   float64 // operation cost of performing the check (charged to the clock)
}

// App is one processor's view of a synchronous iterative application.
type App interface {
	// InitLocal returns the processor's initial partition values X_j(0).
	InitLocal() []float64
	// Compute evaluates X_j(t+1) from the global view of iteration t.
	// view[k] holds partition k's values (actual or speculated);
	// view[j] is the local partition. Compute must not retain view.
	//
	// The returned slice is on loan to the engine (the loan rule): the
	// engine copies it, or is done with it, before its next Compute,
	// Correct or Publish call on this app, so the app may return one reused
	// backing array from every call and overwrite it on the next. The
	// result must not alias view.
	Compute(view [][]float64, t int) []float64
	// ComputeOps is the operation count of one Compute call
	// (the paper's N_i·f_comp).
	ComputeOps() float64
	// Check compares a speculated snapshot of peer k's partition against the
	// actual one, judging whether computations based on the prediction are
	// acceptable (the paper's error > threshold test). local is the local
	// partition at iteration t, needed by error metrics that relate the
	// speculation error to local state (e.g. eq. 11's particle distances).
	Check(peer int, predicted, actual, local []float64, t int) CheckResult
	// RepairOps is the operation cost of repairing the local computation
	// after a failed check (the paper's k·N_i·f_comp recomputation charge,
	// or a cheaper incremental correction).
	RepairOps(r CheckResult) float64
}

// Publisher is an optional App extension: instead of broadcasting the whole
// local partition every iteration, the engine broadcasts Publish(local) —
// e.g. a stencil code publishes only its edge rows. Peers' view entries,
// speculation, and error checking then all operate on the published form,
// which shrinks both message sizes and speculation/checking overhead. The
// local entry view[j] always stays the full partition.
//
// The returned slice is on loan under the same rule as Compute's result:
// the engine clones it or the transport copies it on send, so Publish may
// reuse one buffer across calls.
type Publisher interface {
	Publish(local []float64) []float64
}

// Neighbors is an optional App extension restricting the exchange pattern:
// the paper's general model is all-to-all ("each variable can potentially
// be a function of all other variables"), but stencil-style applications
// read only a few peers, and speculating or checking payloads that are
// never read is pure overhead. Needs(k) reports whether this processor
// reads peer k's payload; NeededBy(k) whether peer k reads this
// processor's. Implementations must be mutually consistent across
// processors (j.Needs(k) == k.NeededBy(j)), or receives will deadlock; the
// pattern is static for a run — the engine consults the predicates once at
// startup to build its dependency masks. When an App implements Neighbors,
// unneeded peers get no messages and a nil view entry, and Stopper.Done
// sees nil entries for them too. Neighbors is the pairwise special case of
// the Grapher extension (graph.go), which declares arbitrary task DAGs and
// takes precedence when both are implemented.
type Neighbors interface {
	Needs(peer int) bool
	NeededBy(peer int) bool
}

// Corrector is an optional App extension implementing the paper's
// "correction function": instead of recomputing X_j(t+1) from scratch when
// a speculation fails its check, the app patches the already-computed local
// values incrementally given the prediction that was used and the actual
// message (e.g. N-body subtracts the speculated pair forces and adds the
// actual ones). Correct must return values identical to recomputing with
// the corrected view; the engine still charges RepairOps. The engine folds
// Correct over every failed peer.
type Corrector interface {
	// Correct returns the fixed X_j(t+1). computed is the speculatively
	// computed local result; local is X_j(t); pred and act are peer k's
	// speculated and actual iteration-t payloads. The result is on loan
	// under Compute's rule. When the engine folds Correct over several
	// peers, computed is the previous call's result, so Correct must give
	// the right answer when its output buffer aliases computed.
	Correct(computed, local []float64, peer int, pred, act []float64, t int) []float64
}

// Stopper is an optional App extension for convergence-based termination.
// After iteration t is fully validated, Done is evaluated on the *actual*
// exchanged snapshots of iteration t — every processor holds the identical
// set (each peer's broadcast payload plus its own), so all processors reach
// the same decision deterministically and stop at the same logical
// iteration, without any extra synchronization round.
type Stopper interface {
	// Done reports whether the computation has converged. actualView[k] is
	// processor k's iteration-t broadcast payload (the published form when
	// the app is a Publisher, including the caller's own entry). The slice
	// is reused between calls; Done must not retain it.
	Done(actualView [][]float64, t int) bool
	// DoneOps is the operation cost charged per evaluation.
	DoneOps() float64
}

// Speculator is an optional App extension for domain-specific speculation
// (e.g. the N-body velocity extrapolation of eq. 10). hist holds the actual
// snapshots of the peer's partition, newest first, and is only valid for
// the duration of the call; steps is how many iterations past hist[0] to
// extrapolate. It returns the prediction and the operation cost charged to
// the clock. The engine routes through Speculate when the App implements
// it, falling back to Config.Predictor otherwise. Unlike
// Compute's result, the prediction is not on loan: the engine keeps it in
// its prediction lane until the iteration is validated, so it must be a
// fresh slice the app never touches again.
type Speculator interface {
	Speculate(peer int, hist [][]float64, steps int) (pred []float64, ops float64)
}
