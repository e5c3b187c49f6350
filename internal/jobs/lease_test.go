package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// expectMetric fails unless the manager's exposition, rendered as /metrics
// would, contains the exact sample line.
func expectMetric(t *testing.T, m *Manager, line string) {
	t.Helper()
	var buf bytes.Buffer
	m.Registry().WriteText(&buf)
	for _, l := range strings.Split(buf.String(), "\n") {
		if l == line {
			return
		}
	}
	t.Errorf("metrics lack %q", line)
}

// TestQueueWaitHistogramLocal: a standalone daemon's in-process leases
// observe every started job's submitted → started wait in
// mosaicd_queue_wait_seconds, as a fleet's do.
func TestQueueWaitHistogramLocal(t *testing.T) {
	m := standalone(t, Options{}, ExecOptions{
		Runner: func(ctx context.Context, l *Lease, emit func(Event)) (json.RawMessage, error) {
			return json.RawMessage(`{}`), nil
		}}, 1)
	for i := 0; i < 3; i++ {
		j, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j, 5*time.Second); st != StateDone {
			t.Fatalf("job finished %s", st)
		}
	}
	expectMetric(t, m, "mosaicd_queue_wait_seconds_count 3")
	if m.mQueueWait.Sum() <= 0 {
		t.Error("queue-wait histogram observed no time at all")
	}
}

// TestLeaseJobParksUntilWoken drives the one lease path through each way a
// parked request ends: a done context is a single look, an enqueue grants,
// a requeue grants, and the start of a drain answers "nothing" at once.
func TestLeaseJobParksUntilWoken(t *testing.T) {
	m := NewManager(Options{})
	defer shutdown(t, m) // a second Shutdown only waits; the one below is the test's
	bg := context.Background()
	expired, cancel := context.WithCancel(context.Background())
	cancel()

	if l := m.LeaseJob(expired, "w", nil, time.Second); l != nil {
		t.Fatalf("empty queue granted %+v", l)
	}

	type grant struct {
		l  *Lease
		ok bool
	}
	park := func(worker string) <-chan grant {
		c := make(chan grant, 1)
		go func() {
			l := m.LeaseJob(bg, worker, nil, time.Minute)
			c <- grant{l, l != nil}
		}()
		return c
	}
	await := func(c <-chan grant) grant {
		t.Helper()
		select {
		case g := <-c:
			return g
		case <-time.After(5 * time.Second):
			t.Fatal("parked LeaseJob was never woken")
			return grant{}
		}
	}

	parked := park("w1")
	j, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	g := await(parked)
	if !g.ok || g.l.JobID != j.ID || g.l.Attempt != 1 {
		t.Fatalf("enqueue woke the parked request with %+v, %v", g.l, g.ok)
	}
	if st := m.QueueStats(); st.Leased != 1 {
		t.Errorf("QueueStats.Leased = %d with one lease out, want 1", st.Leased)
	}

	// A lease handed back requeues at once and wakes the next parked request;
	// it is a requeue, not an expiry.
	parked = park("w2")
	if !m.ReturnLease(j.ID, "w1") {
		t.Fatal("ReturnLease refused the holder")
	}
	if m.ReturnLease(j.ID, "w1") {
		t.Error("ReturnLease accepted a worker that no longer holds the lease")
	}
	g = await(parked)
	if !g.ok || g.l.JobID != j.ID || g.l.Attempt != 2 {
		t.Fatalf("requeue woke the parked request with %+v, %v", g.l, g.ok)
	}
	expectMetric(t, m, "mosaicd_jobs_requeued_total 1")
	expectMetric(t, m, "mosaicd_leases_expired_total 0")
	expectMetric(t, m, "mosaicd_leases_active 1")
	expectMetric(t, m, "mosaicd_queue_wait_seconds_count 2")
	if err := m.CompleteLease(j.ID, "w2", json.RawMessage(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	if st := m.QueueStats(); st.Leased != 0 {
		t.Errorf("QueueStats.Leased = %d after completion, want 0", st.Leased)
	}

	parked = park("w3")
	shutdown(t, m)
	if g := await(parked); g.ok {
		t.Errorf("drain granted %+v", g.l)
	}
	if l := m.LeaseJob(bg, "w3", nil, time.Minute); l != nil {
		t.Errorf("draining manager granted %+v", l)
	}
}

// TestParkedLeasesGrantEachJobOnce races parked lease requests against
// submissions: no enqueue may fall between a request's look and its wait
// (the job would sit queued with every worker parked), and no job may be
// granted twice.
func TestParkedLeasesGrantEachJobOnce(t *testing.T) {
	m := NewManager(Options{QueueDepth: 64})
	defer shutdown(t, m)
	const n = 40
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	granted := make(chan string, n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				l := m.LeaseJob(ctx, "w", nil, time.Minute)
				if l == nil {
					return
				}
				granted <- l.JobID
				if err := m.CompleteLease(l.JobID, "w", json.RawMessage(`{}`), nil); err != nil {
					t.Errorf("complete %s: %v", l.JobID, err)
				}
			}
		}()
	}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		j, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
		if err != nil {
			t.Fatal(err)
		}
		// One job at a time: each submission meets parked requests only.
		select {
		case id := <-granted:
			if id != j.ID || seen[id] {
				t.Fatalf("submission %s woke a grant of %s (seen before: %v)", j.ID, id, seen[id])
			}
			seen[id] = true
		case <-ctx.Done():
			t.Fatalf("job %s stayed queued with every lease request parked", j.ID)
		}
	}
	cancel()
	wg.Wait()
}
