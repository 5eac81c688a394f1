package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"polyprof/internal/jobapi"
	"polyprof/internal/jobexec"
	"polyprof/internal/serve"
)

// cmdWork runs a stateless remote worker: it claims jobs from a
// coordinator (`polyprof serve -data-dir ...`) over the lease
// protocol, executes them with the same attempt runner the coordinator
// uses locally, and reports results under its fencing token.  Workers
// hold no durable state — kill -9 one at any point and the coordinator
// reclaims its leases after the TTL and re-queues the jobs.
func cmdWork(args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	coordinator := fs.String("coordinator", "http://localhost:7070", "coordinator base URL")
	slots := fs.Int("workers", 2, "concurrently leased attempts")
	name := fs.String("name", "", "worker name on claims (default <host>:<pid>)")
	leaseTTL := fs.Duration("lease-ttl", 0, "requested lease TTL, clamped by the coordinator (0 = coordinator default)")
	poll := fs.Duration("poll", 500*time.Millisecond, "idle sleep between claim attempts when the queue is empty")
	reqTimeout := fs.Duration("request-timeout", serve.DefaultRequestTimeout,
		"per-attempt wall-clock limit (negative disables)")
	bf := addBudgetFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator == "" {
		return fmt.Errorf("work: missing -coordinator URL")
	}

	timeout := *reqTimeout
	if timeout < 0 {
		timeout = 0
	}
	w := jobapi.NewWorker(jobapi.WorkerOptions{
		Coordinator: *coordinator,
		Name:        *name,
		Slots:       *slots,
		LeaseTTL:    *leaseTTL,
		Poll:        *poll,
		Exec:        jobexec.Options{Limits: bf.limits(), Timeout: timeout},
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "polyprof: worker %s claiming from %s with %d slot(s)\n",
		w.Name(), *coordinator, *slots)
	w.Run(ctx)
	fmt.Fprintln(os.Stderr, "polyprof: worker drained, bye")
	return nil
}
