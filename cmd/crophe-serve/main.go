// Command crophe-serve runs the CROPHE serving layer: a long-running
// HTTP/JSON service exposing schedule, simulate, degraded-simulate and
// resilience-sweep operations with production hardening — admission
// control with load shedding, per-request deadline propagation into the
// scheduler's anytime budget, per-request panic isolation, and graceful
// drain on SIGTERM/SIGINT.
//
// Usage:
//
//	crophe-serve [-addr host:port] [-workers N] [-queue N]
//	             [-queue-wait D] [-drain-timeout D] [-chaos]
//
// Endpoints:
//
//	GET  /healthz               liveness
//	GET  /readyz                readiness (503 while draining)
//	GET  /debug/vars            admission, request and memo counters
//	POST /v1/schedule           dataflow search for one workload
//	POST /v1/simulate           schedule + cycle-level simulation
//	POST /v1/simulate-degraded  seeded fault plan + degraded simulation
//	POST /v1/sweeps             resilience sweep: throughput retained per rung
//
// A request carries its deadline in the X-Crophe-Deadline header (a Go
// duration) or a deadline_ms body field; a request whose deadline
// expires mid-search returns its best-so-far schedule marked
// "partial": true. A sweep is answered within its request: its
// deadline_ms is each rung's search budget, and the header bounds the
// whole sweep. -chaos honours the chaos_panic request field (handlers
// panic on purpose) and exists for smoke drills only. Malformed flag
// values print usage and exit 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"crophe/internal/cliutil"
	"crophe/internal/serve"
)

// usageExit reports a malformed flag value, prints usage, and exits 2 —
// the conventional "bad command line" status, distinct from runtime
// failures (exit 1).
func usageExit(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "crophe-serve: "+format+"\n", a...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	addrSpec := flag.String("addr", ":8080", "listen address (host:port)")
	workersSpec := flag.String("workers", "", "max concurrently executing requests (default: worker pool size)")
	queueSpec := flag.String("queue", "", "admission queue depth before load shedding (default 64)")
	queueWaitSpec := flag.String("queue-wait", "", "max time a queued request waits for a slot (default 5s)")
	drainSpec := flag.String("drain-timeout", "", "graceful shutdown drain budget (default 15s)")
	chaosPanic := flag.Bool("chaos", false, "honour the chaos_panic request field (smoke drills only)")
	flag.Parse()

	cfg := serve.Config{AllowChaos: *chaosPanic}
	var err error
	if cfg.Addr, err = cliutil.ParseAddr(*addrSpec); err != nil {
		usageExit("%v", err)
	}
	if *workersSpec != "" {
		if cfg.Workers, err = cliutil.ParsePositiveInt("-workers", *workersSpec); err != nil {
			usageExit("%v", err)
		}
	}
	if *queueSpec != "" {
		if cfg.QueueDepth, err = cliutil.ParsePositiveInt("-queue", *queueSpec); err != nil {
			usageExit("%v", err)
		}
	}
	if *queueWaitSpec != "" {
		if cfg.QueueWait, err = cliutil.ParseDeadline(*queueWaitSpec); err != nil {
			usageExit("invalid -queue-wait: %v", err)
		}
	}
	if *drainSpec != "" {
		if cfg.DrainTimeout, err = cliutil.ParseDeadline(*drainSpec); err != nil {
			usageExit("invalid -drain-timeout: %v", err)
		}
	}

	// Drain on SIGTERM (the orchestrator's stop signal) and SIGINT:
	// readiness flips immediately and in-flight requests finish under the
	// drain budget. The handler is installed before the listener
	// announces, so a supervisor that stops us the instant we come up
	// still gets a clean drain instead of the default-disposition kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)

	srv := serve.New(cfg)
	if err := srv.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "crophe-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("crophe-serve: listening on %s\n", srv.Addr())

	<-sig
	fmt.Fprintln(os.Stderr, "crophe-serve: draining")
	if err := srv.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "crophe-serve: %v\n", err)
		os.Exit(1)
	}
}
