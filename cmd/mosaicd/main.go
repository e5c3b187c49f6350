// Command mosaicd is the MosaicSim-Go simulation daemon: a long-running,
// network-facing service that accepts simulation jobs over HTTP, runs them
// through the shared session engine, streams live per-job events, and
// exposes Prometheus metrics. With -data-dir it is durable (jobs and
// artifacts survive restarts). Every job starts as a lease: a standalone
// daemon leases its own queue to an in-process executor; with -role one
// coordinator owns the queue and a fleet of workers leases jobs from it
// over HTTP.
//
// Usage:
//
//	mosaicd [-role standalone|coordinator|worker] [-addr :8374]
//	        [-workers N] [-queue N] [-job-timeout D] [-drain D]
//	        [-cache-entries N] [-max-jobs N] [-replay=true|false]
//	        [-data-dir DIR] [-tenant-quota N]
//	        [-max-attempts N] [-lease-ttl D] [-heartbeat D]
//	        [-coordinator URL] [-name NAME] [-slots N]
//
// Quickstart (standalone):
//
//	mosaicd -addr :8374 -data-dir /var/lib/mosaicd &
//	curl -s localhost:8374/v1/jobs -d '{"workload":"sgemm","scale":"tiny","tiles":2}'
//	curl -s localhost:8374/v1/jobs/j000001/events   # NDJSON live stream
//	curl -s localhost:8374/v1/jobs/j000001          # status + final report
//	curl -s -X DELETE localhost:8374/v1/jobs/j000001 # 202, the job already cancelled
//	curl -s localhost:8374/metrics                  # Prometheus text
//
// Quickstart (fleet): same API on the coordinator; a worker serves only
// /healthz and /metrics:
//
//	mosaicd -role coordinator -addr :8374 -data-dir /var/lib/mosaicd &
//	mosaicd -role worker -addr :8375 -coordinator http://127.0.0.1:8374 -name w1 &
//
// Admission is bounded: when -queue jobs are already waiting, submissions
// are shed with 429 (Retry-After derived from the live backlog), and
// per-tenant quotas (-tenant-quota, tenant from the spec or the
// X-Mosaic-Tenant header) stop one client from monopolizing the fleet.
// SIGINT/SIGTERM drains gracefully: admission closes, queued jobs are
// cancelled, and leased jobs get -drain to complete before they are
// cancelled too.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mosaicsim/internal/cluster"
	"mosaicsim/internal/jobs"
	"mosaicsim/internal/server"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is what the command line resolves to.
type config struct {
	role, addr, dataDir, coordURL, name string
	// slots is how many jobs this process executes at once: -slots if set,
	// else -workers, else one per CPU. A coordinator executes none.
	slots        int
	cacheEntries int
	drain        time.Duration
	mgr          jobs.Options
	exec         jobs.ExecOptions
	coord        cluster.CoordinatorOptions
}

// parseFlags resolves args into a config. On failure it has already written
// the reason to stderr and returns the exit code (0 for -h).
func parseFlags(args []string, stderr io.Writer) (*config, int) {
	var c config
	fs := flag.NewFlagSet("mosaicd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.role, "role", "standalone", "standalone (serve and execute), coordinator (serve, lease to a fleet), or worker (execute leases from -coordinator)")
	fs.StringVar(&c.addr, "addr", ":8374", "listen address (host:port; :0 picks a free port)")
	workers := fs.Int("workers", 0, "concurrent simulations in this process (0 = all CPU cores)")
	fs.IntVar(&c.mgr.QueueDepth, "queue", 64, "admission queue depth; submissions beyond it shed with 429")
	fs.DurationVar(&c.exec.JobTimeout, "job-timeout", 10*time.Minute, "per-job wall-clock cap (0 = none)")
	fs.DurationVar(&c.drain, "drain", 15*time.Second, "graceful-shutdown budget for running jobs")
	fs.IntVar(&c.cacheEntries, "cache-entries", 256, "artifact-cache entry cap per layer (0 = unbounded)")
	fs.IntVar(&c.mgr.MaxJobs, "max-jobs", 4096, "retained job records; oldest terminal jobs are forgotten beyond it")
	fs.BoolVar(&c.exec.Replay, "replay", true, "default for specs that leave replay unset: answer timing-only re-submissions from recorded schedules (bit-identical results)")
	fs.StringVar(&c.dataDir, "data-dir", "", "durable state directory: jobs resume and artifacts persist across restarts (empty = in-memory only)")
	fs.IntVar(&c.mgr.TenantQuota, "tenant-quota", 0, "max live (queued+running) jobs per tenant (0 = unlimited)")
	fs.IntVar(&c.mgr.MaxAttempts, "max-attempts", 0, "executions a job may consume across lost leases and restarts before failing (0 = default 3)")
	fs.DurationVar(&c.coord.LeaseTTL, "lease-ttl", 15*time.Second, "coordinator: lease lifetime without renewal; a silent worker's jobs requeue after this")
	fs.DurationVar(&c.coord.Heartbeat, "heartbeat", 0, "coordinator: worker heartbeat interval (0 = lease-ttl/3)")
	fs.StringVar(&c.coordURL, "coordinator", "", "worker: coordinator base URL to lease jobs from")
	fs.StringVar(&c.name, "name", "", "worker: fleet-unique name (default: hostname:pid)")
	fs.IntVar(&c.slots, "slots", 0, "worker: concurrent leased jobs; overrides -workers (0 = -workers)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2 // fs has already written the error and the usage to stderr
	}
	switch c.role {
	case "standalone", "coordinator":
	case "worker":
		if c.coordURL == "" {
			fmt.Fprintln(stderr, "mosaicd: -role worker requires -coordinator URL")
			return nil, 2
		}
	default:
		fmt.Fprintf(stderr, "mosaicd: unknown -role %q (want standalone, coordinator, or worker)\n", c.role)
		return nil, 2
	}
	if c.slots <= 0 {
		if c.slots = *workers; c.slots <= 0 {
			c.slots = runtime.NumCPU()
		}
	}
	return &c, 0
}

func run(args []string, stdout, stderr io.Writer) int {
	c, code := parseFlags(args, stderr)
	if c == nil {
		return code
	}
	logger := log.New(stderr, "mosaicd: ", log.LstdFlags|log.Lmicroseconds)

	cache := sim.NewCache()
	cache.SetMaxEntries(c.cacheEntries)

	// The store is double duty: the jobs half (where jobs are admitted:
	// standalone and coordinator) and the artifact half (every role: warm
	// traces and schedules survive restarts and prime the cache before the
	// first job).
	var st *store.Store
	if c.dataDir != "" {
		var err error
		if st, err = store.Open(c.dataDir); err != nil {
			logger.Print(err)
			return 1
		}
		defer st.Close()
		imported := 0
		if err := st.Artifacts(func(name string, data []byte) error {
			if err := cache.ImportArtifact(name, data); err != nil {
				logger.Printf("artifact %s: %v (skipped)", name, err)
				return nil
			}
			imported++
			return nil
		}); err != nil {
			logger.Print(err)
		}
		if imported > 0 {
			logger.Printf("imported %d artifact blobs from %s", imported, c.dataDir)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One lease path, three wirings: the manager admits and grants leases,
	// the executor's loop runs them. Standalone joins the two with plain
	// calls; a coordinator serves its manager's leases over HTTP; a worker
	// has only the executor and takes its leases from there.
	var (
		mgr     *jobs.Manager
		handler http.Handler
		serve   = func() {} // this role's lease loop, run to its end
	)
	if c.role != "worker" {
		c.mgr.Store = st
		mgr = jobs.NewManager(c.mgr)
		c.exec.Registry = mgr.Registry()
		handler = server.New(mgr)
	}
	c.exec.Cache = cache
	switch c.role {
	case "standalone":
		x := jobs.NewExecutor(c.exec)
		// Ends when the manager drains, not with ctx: the drain decides.
		serve = func() { x.Serve(context.Background(), mgr.Local(), c.slots) }
	case "coordinator":
		coord := cluster.NewCoordinator(mgr, c.coord)
		go coord.Run(ctx)
		mux := http.NewServeMux()
		mux.Handle("/cluster/v1/", coord)
		mux.Handle("/", handler)
		handler = mux
	case "worker":
		if c.name == "" {
			host, _ := os.Hostname()
			c.name = fmt.Sprintf("%s:%d", host, os.Getpid())
		}
		x := jobs.NewExecutor(c.exec)
		w, err := cluster.NewWorker(cluster.WorkerOptions{
			Name:        c.name,
			Coordinator: c.coordURL,
			Executor:    x,
			Slots:       c.slots,
		})
		if err != nil {
			logger.Print(err)
			return 1
		}
		serve = func() { _ = w.Run(ctx) } // its error is ctx's
		handler = server.NewWorker(x)
		logger.Printf("worker %s leasing from %s (slots=%d)", c.name, c.coordURL, c.slots)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		serve()
	}()

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		logger.Print(err)
		return 1
	}
	// Event streams outlive http.Server.Shutdown's handler wait unless
	// their requests observe the drain, so every request context descends
	// from baseCtx, which the drain path cancels after the manager stops.
	baseCtx, stopStreams := context.WithCancel(context.Background())
	defer stopStreams()
	srv := &http.Server{
		Handler:     handler,
		ReadTimeout: 30 * time.Second,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Printf("listening on %s (role=%s slots=%d queue=%d cache-entries=%d data-dir=%q)",
		ln.Addr(), c.role, c.slots, c.mgr.QueueDepth, c.cacheEntries, c.dataDir)

	select {
	case err := <-errc:
		logger.Print(err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way
	logger.Printf("signal received; draining (budget %s)", c.drain)

	shutCtx, cancel := context.WithTimeout(context.Background(), c.drain)
	defer cancel()
	if mgr != nil {
		if err := mgr.Shutdown(shutCtx); err != nil {
			logger.Print(err)
		}
	}
	// The lease loop returns once its source has nothing more to give and its
	// runs are done: cancelled ones unwind promptly, a worker's get the budget.
	select {
	case <-served:
	case <-shutCtx.Done():
		logger.Print("drain deadline hit waiting for running jobs")
	}
	// Persist warm artifacts so the next process starts with today's traces
	// and schedules instead of recomputing them. A stored blob this process
	// could not import is replaced by the one it rebuilt.
	if st != nil {
		exported := 0
		if err := cache.ExportArtifacts(func(name string, data []byte) error {
			fresh, err := st.PutArtifact(name, data)
			if err != nil {
				return err
			}
			if fresh {
				exported++
			}
			return nil
		}); err != nil {
			logger.Printf("artifact export: %v", err)
		} else if exported > 0 {
			logger.Printf("exported %d new or replaced artifact blobs to %s", exported, c.dataDir)
		}
	}
	stopStreams() // ends live event streams so Shutdown's handler wait returns
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Print(err)
		return 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Print(err)
		return 1
	}
	fmt.Fprintln(stdout, "mosaicd: drained cleanly")
	return 0
}
