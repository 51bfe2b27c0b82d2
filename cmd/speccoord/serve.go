package main

// Service mode (-serve): internal/sched behind its HTTP API, each job's
// nodes being this binary re-executed with -join. SIGTERM or SIGINT
// drains (see sched.Scheduler.Drain) and exits.

import (
	"errors"
	"fmt"
	"log"
	"net"
	nethttp "net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"specomp/internal/checkpoint"
	"specomp/internal/distnet"
	"specomp/internal/sched"
)

// serveOpts are the -serve flags.
type serveOpts struct {
	addr                    string
	pool                    int
	custodyDir, stateDir    string
	tenantJobs, tenantRanks int
	maxRespawns             int
	runTimeout, evictGrace  time.Duration
	drainTimeout            time.Duration
	nodeTimeout, rejoinWait time.Duration
}

// runServe serves the scheduler until SIGTERM/SIGINT, then drains.
func runServe(o serveOpts, logger *log.Logger) {
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	var custody *checkpoint.FileStore
	if o.custodyDir != "" {
		if custody, err = checkpoint.NewFileStore(o.custodyDir); err != nil {
			logger.Fatalf("%v", err)
		}
	}
	s, err := sched.New(sched.Config{
		TotalRanks: o.pool,
		Launch: func(info sched.LaunchInfo) (*exec.Cmd, error) {
			cmd := exec.Command(self, "-join", info.Coord, "-epoch", strconv.Itoa(info.Epoch))
			pw := distnet.NewPrefixWriter(os.Stderr, fmt.Sprintf("[%s node %d] ", info.JobID, info.Slot))
			cmd.Stdout, cmd.Stderr = pw, pw
			return cmd, nil
		},
		Custody:  custody,
		StateDir: o.stateDir,

		MaxJobsPerTenant: o.tenantJobs, MaxRanksPerTenant: o.tenantRanks,
		MaxRespawns: o.maxRespawns, RunTimeout: o.runTimeout, EvictGrace: o.evictGrace,
		NodeTimeout: o.nodeTimeout, RejoinWait: o.rejoinWait,
		Logf: logger.Printf,
	})
	if err != nil {
		logger.Fatalf("%v", err)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		logger.Fatalf("scheduler listener: %v", err)
	}
	srv := &nethttp.Server{Handler: s.Handler()}
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, nethttp.ErrServerClosed) {
			logger.Fatalf("scheduler server: %v", err)
		}
	}()
	logger.Printf("scheduler listening on http://%s (pool %d ranks, %d jobs queued)",
		ln.Addr(), o.pool, len(s.Queue().Pending))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	logger.Printf("%v: draining (timeout %v)", <-sig, o.drainTimeout)
	// The API stays up while draining, so clients get 503 rather than a
	// refused connection.
	err = s.Drain(o.drainTimeout)
	srv.Close()
	s.Close()
	if err != nil {
		logger.Fatalf("drain: %v", err)
	}
}
