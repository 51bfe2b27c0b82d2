package main

// The scheduler soak (-jobs N); the scenario and its gates are described
// in the command doc and in EXPERIMENTS.md.

import (
	"fmt"
	"log"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"

	"specomp/internal/apps/heat"
	"specomp/internal/benchfmt"
	"specomp/internal/checkpoint"
	"specomp/internal/distnet"
	"specomp/internal/sched"
)

// runSchedSoak runs the scheduler soak, exiting non-zero on any failed
// gate; with out set it merges the Sched* series into that report.
func runSchedSoak(logger *log.Logger, self string, pool, jobs, iters int, timeout time.Duration, out string) {
	if err := schedSoak(logger, self, pool, jobs, iters, timeout, out); err != nil {
		logger.Fatalf("FAIL: %v", err)
	}
}

// schedSoak returns instead of exiting, so its deferred teardown stops
// every node process first.
func schedSoak(logger *log.Logger, self string, pool, jobs, iters int, timeout time.Duration, out string) error {
	dir, err := os.MkdirTemp("", "specsoak-custody-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	custody, err := checkpoint.NewFileStore(dir)
	if err != nil {
		return err
	}
	s, err := sched.New(sched.Config{
		TotalRanks: pool,
		Launch: func(info sched.LaunchInfo) (*exec.Cmd, error) {
			cmd := exec.Command(self, "-join", info.Coord, "-epoch", strconv.Itoa(info.Epoch))
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			return cmd, nil
		},
		Custody: custody, RunTimeout: timeout, EvictGrace: 20 * time.Second,
		Logf: logger.Printf,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	deadline := time.Now().Add(timeout)

	var ids []string
	specs := map[string]distnet.RunSpec{}
	submit := func(name string, priority, procs, maxIter int) error {
		spec := distnet.RunSpec{App: "heat", Procs: procs, MaxIter: maxIter, FW: 2, Theta: 1e-3,
			Rows: 48, Cols: 32, CheckpointEvery: 5}
		st, err := s.Submit(sched.JobSpec{Name: name, Priority: priority, Spec: spec})
		if err != nil {
			return err
		}
		ids, specs[st.ID] = append(ids, st.ID), spec
		return nil
	}
	// The batch job runs 8× longer than the arrivals, so it is still
	// mid-run when the first urgent job lands on the full pool.
	if err := submit("batch", 1, pool, 8*iters); err != nil {
		return err
	}
	batch := ids[0]
	ns, err := custody.Namespace(batch)
	if err != nil {
		return err
	}
	for covered := 0; covered < pool; {
		if time.Now().After(deadline) {
			return fmt.Errorf("batch custody never covered the pool (%d/%d)", covered, pool)
		}
		time.Sleep(10 * time.Millisecond)
		covered = 0
		for r := 0; r < pool; r++ {
			if _, ok := ns.Load(r); ok {
				covered++
			}
		}
	}
	logger.Printf("sched soak: batch %s custody covers %d ranks; streaming %d arrivals", batch, pool, jobs-1)
	for i := 1; i < jobs; i++ {
		name, priority := "urgent", 9
		if i%2 == 0 {
			name, priority = "filler", 1
		}
		if err := submit(fmt.Sprintf("%s-%d", name, i), priority, max(pool/2, 1), iters); err != nil {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}

	final := map[string]sched.JobStatus{}
	for len(final) < len(ids) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d/%d jobs finished within %v", len(final), len(ids), timeout)
		}
		time.Sleep(50 * time.Millisecond)
		for _, id := range ids {
			if st, err := s.Status(id); err != nil {
				return err
			} else if st.State == sched.StateDone || st.State == sched.StateFailed || st.State == sched.StateCanceled {
				final[id] = st
			}
		}
	}
	for _, id := range ids {
		st, spec := final[id], specs[id]
		if st.State != sched.StateDone {
			return fmt.Errorf("job %s (%s) ended %s: %s", id, st.Name, st.State, st.Error)
		}
		if err := spec.Normalize(); err != nil {
			return err
		}
		field, err := distnet.AssembleHeat(spec, st.Reports)
		if err != nil {
			return fmt.Errorf("job %s: %w", id, err)
		}
		d := heat.MaxDiff(field, heat.DefaultGrid(spec.Rows, spec.Cols).SerialRun(spec.MaxIter))
		fmt.Printf("  %s %-8s priority=%d ranks=%d preemptions=%d restores=%d wait=%.3fs max|Δ| vs serial %.4g\n",
			id, st.Name, st.Priority, st.Procs, st.Preemptions, st.Restores, st.WaitSec, d)
		if d > convergeTol {
			return fmt.Errorf("job %s deviates %g from its serial reference", id, d)
		}
	}
	stats := s.Stats()
	if b := final[batch]; stats.Preemptions < 1 || b.Preemptions < 1 || b.Restores < 1 {
		return fmt.Errorf("want >= 1 preemption of the batch job and >= 1 custody restore; got %d preemptions, batch %d evictions, %d restores",
			stats.Preemptions, b.Preemptions, b.Restores)
	}

	// Percentiles of the per-dispatch queue waits (index ⌊p·n⌋).
	waits := append([]float64(nil), stats.WaitSec...)
	sort.Float64s(waits)
	pct := func(p float64) float64 { return waits[min(int(p*float64(len(waits))), len(waits)-1)] }
	fmt.Printf("sched soak J=%d pool=%d: %d dispatches, %d preemptions, %d resumes, queue wait p50 %.3fs p99 %.3fs\n",
		jobs, pool, len(waits), stats.Preemptions, stats.Resumes, pct(0.50), pct(0.99))
	if out == "" {
		return nil
	}
	suffix := fmt.Sprintf("/J%d", jobs)
	rep, err := benchfmt.Load(out)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	rep.Merge(
		benchfmt.Result{Pkg: "specomp/cmd/specsoak", Name: "SchedWaitP50" + suffix, Iters: int64(len(waits)), NsPerOp: 1e9 * pct(0.50)},
		benchfmt.Result{Pkg: "specomp/cmd/specsoak", Name: "SchedWaitP99" + suffix, Iters: int64(len(waits)), NsPerOp: 1e9 * pct(0.99)},
		// ns_per_op holds the raw preemption count (a synthetic series).
		benchfmt.Result{Pkg: "specomp/cmd/specsoak", Name: "SchedPreemptions" + suffix, Iters: int64(jobs), NsPerOp: float64(stats.Preemptions)},
	)
	if err := rep.Save(out); err != nil {
		return err
	}
	logger.Printf("merged 3 Sched* series into %s", out)
	return nil
}
