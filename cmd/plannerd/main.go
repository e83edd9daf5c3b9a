// Command plannerd is the continuous-planning daemon: it keeps a live
// follow-the-renewables plan for an emulated datacenter network, re-planning
// warm on every streamed hour and serving the result over HTTP/JSON.
//
// Usage:
//
//	plannerd [-addr 127.0.0.1:0] [-snapshot plan.snap] [trace flags]
//
// The daemon prints "plannerd: listening on ADDR" on standard output once
// the API is up (with -addr port 0 this is how callers learn the bound
// port), then serves:
//
//	GET  /plan    — the current plan and cumulative statistics
//	POST /tick    — feed the next trace hour (optionally with streamed
//	                weather updates), returns the re-planned state
//	POST /whatif  — price a hypothetical siting in an interactive session
//	GET  /healthz — liveness
//
// With -snapshot, the daemon persists every tick to a checksummed snapshot
// journal and, on startup, resumes from an existing one: the plan stream
// continues bit-identically to an uninterrupted daemon and the first
// post-restart solve starts warm from the persisted basis.  The file is a
// checkpoint of the whole state (GNPS1 frame, written by temp file +
// rename) followed by one appended record per tick since (GNPR1 frames);
// the checkpoint is rewritten once the records reach its size.  A corrupt,
// truncated or foreign snapshot is logged and ignored.  SIGINT/SIGTERM shut
// down cleanly: in-flight requests finish, new work is refused.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"greencloud/internal/plan"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "plannerd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
		snapshot = flag.String("snapshot", "", "snapshot file: written after every tick, resumed from on start")
		spec     plan.TraceSpec
	)
	flag.IntVar(&spec.Sites, "sites", 0, "location catalog size (0 = default)")
	flag.Int64Var(&spec.Seed, "seed", 0, "catalog seed (0 = default)")
	flag.IntVar(&spec.Datacenters, "datacenters", 0, "datacenter count (0 = default, at most 64)")
	flag.IntVar(&spec.VMs, "vms", 0, "HPC fleet size (0 = default)")
	flag.IntVar(&spec.StartHour, "start-hour", 0, "trace start hour (0 = default)")
	flag.IntVar(&spec.HorizonHours, "horizon", 0, "prediction horizon hours (0 = default)")
	flag.Int64Var(&spec.LPTimeoutMS, "lp-timeout-ms", 0, "per-tick LP budget in ms (0 = default)")
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d, err := plan.New(plan.Config{
		Trace:        spec,
		SnapshotPath: *snapshot,
		Ctx:          ctx,
		Logf:         logger.Printf,
	})
	if err != nil {
		return err
	}
	if resumed, warm := d.Resumed(); resumed {
		logger.Printf("resumed from snapshot %s at tick %d (warm=%v)", *snapshot, d.PlanView().Tick, warm)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The sentinel line the smoke harness (and any supervisor) parses to
	// learn the bound address; keep it stable.
	fmt.Printf("plannerd: listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	// A client that trickles its headers or body cannot hold a connection
	// (and its goroutine) open indefinitely; the handler also caps body size.
	srv := &http.Server{
		Handler:           d.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		logger.Printf("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return err
		}
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
