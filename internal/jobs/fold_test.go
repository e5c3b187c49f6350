package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mosaicsim/internal/store"
)

// foldLog is the reference reading of an event log: each lifecycle edge sets
// the state until one is terminal; a running edge sets the start, the lease
// holder and the attempt (logs from before leases numbered attempts carry
// none, and count one per edge); the terminal edge sets the finish and the
// error. Only those Status fields are filled.
func foldLog(evs []Event) Status {
	var st Status
	for _, e := range evs {
		if e.Type != "state" || st.State.Terminal() {
			continue
		}
		st.State = e.State
		t := e.Time
		switch {
		case e.State == StateRunning:
			st.Started, st.Worker = &t, e.Worker
			if e.Attempt > st.Attempts {
				st.Attempts = e.Attempt
			} else {
				st.Attempts++
			}
		case e.State.Terminal():
			st.Finished, st.Error = &t, e.Error
		}
	}
	return st
}

// checkAgainstLog fails unless st is the fold of evs: the derived fields
// equal foldLog's, and a report is present exactly when the log ends done.
func checkAgainstLog(t *testing.T, st Status, evs []Event) {
	t.Helper()
	want := foldLog(evs)
	want.ID, want.Spec, want.Submitted, want.Report = st.ID, st.Spec, st.Submitted, st.Report
	got, _ := json.Marshal(st)
	wantJSON, _ := json.Marshal(want)
	if string(got) != string(wantJSON) {
		t.Errorf("%s: status is not the fold of its log\n got %s\nwant %s\n log %s", st.ID, got, wantJSON, marshalEvents(t, evs))
	}
	if (len(st.Report) > 0) != (st.State == StateDone) {
		t.Errorf("%s: %s with report %q", st.ID, st.State, st.Report)
	}
}

// checkNothingAfterTerminal fails if any event follows a terminal edge.
func checkNothingAfterTerminal(t *testing.T, id string, evs []Event) {
	t.Helper()
	for i, e := range evs {
		if e.Type == "state" && e.State.Terminal() && i != len(evs)-1 {
			t.Errorf("%s: events follow the terminal edge: %s", id, marshalEvents(t, evs))
			return
		}
	}
}

// TestCancelRacingRequeue races a client's Cancel against each way a lease is
// handed back — ReturnLease and an expiry. Whichever wins, the job ends
// cancelled and nothing follows that edge, and over a store a restart reads
// every job back cancelled. A requeue must append its edge in the lock hold
// that checks its claim: a Cancel falling between the two logs "cancelled,
// queued", and a restart then queues the job to run again. Most rounds run
// in memory, where they are cheap: a store round costs its job a directory
// and a sync.
func TestCancelRacingRequeue(t *testing.T) {
	const memRounds, storeRounds = 5000, 100 // per requeue path
	for _, tc := range []struct {
		name    string
		requeue func(m *Manager, id string)
	}{
		{"ReturnLease", func(m *Manager, id string) { m.ReturnLease(id, "w") }},
		{"ExpireLeases", func(m *Manager, id string) { m.ExpireLeases(time.Now()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raceCancelRequeue(t, Options{}, memRounds, tc.requeue)

			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			raceCancelRequeue(t, Options{Store: st}, storeRounds, tc.requeue)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			m := NewManager(Options{Store: st2})
			defer shutdown(t, m) // before the store closes
			js := m.List()
			if len(js) != storeRounds && !t.Failed() {
				t.Fatalf("recovered %d jobs, want %d", len(js), storeRounds)
			}
			for _, j := range js {
				if s := j.State(); s != StateCancelled {
					evs, _, _ := j.EventsSince(0)
					t.Fatalf("%s was cancelled and recovered %s: %s", j.ID, s, marshalEvents(t, evs))
				}
			}
		})
	}
}

// raceCancelRequeue runs rounds jobs on a fresh manager, ten at a time: each
// is leased (lapsed at once, so an expiry scan takes it), then requeue and a
// Cancel race on it. Every job must end cancelled with nothing after that
// edge. The manager is shut down before it returns.
func raceCancelRequeue(t *testing.T, opts Options, rounds int, requeue func(m *Manager, id string)) {
	t.Helper()
	const batch = 10
	opts.QueueDepth, opts.MaxJobs = batch, batch
	m := NewManager(opts)
	defer shutdown(t, m)
	once, stop := context.WithCancel(context.Background())
	stop() // a single look at the queue
	for i := 0; i < rounds/batch && !t.Failed(); i++ {
		js := make([]*Job, batch)
		for k := range js {
			var err error
			if js[k], err = m.Submit(Spec{Workload: "sgemm", Scale: "tiny"}); err != nil {
				t.Fatal(err)
			}
			if l := m.LeaseJob(once, "w", nil, -time.Second); l == nil {
				t.Fatal("nothing to lease")
			}
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, j := range js {
			wg.Add(2)
			go func() { defer wg.Done(); <-start; requeue(m, j.ID) }()
			go func() { defer wg.Done(); <-start; _, _ = m.Cancel(j.ID) }()
		}
		close(start)
		wg.Wait()
		for _, j := range js {
			evs, _, done := j.EventsSince(0)
			if !done || j.State() != StateCancelled {
				t.Fatalf("%s: %s (stream done %v): %s", j.ID, j.State(), done, marshalEvents(t, evs))
			}
			checkNothingAfterTerminal(t, j.ID, evs)
		}
	}
}

// TestRecoveredStatusMatchesLive: for each way a job can end, its Status
// reads byte for byte the same after a restart as it did live — the lease
// holder, the start and finish times (the edges' own), the attempts and the
// error all come from the log.
func TestRecoveredStatusMatchesLive(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{Store: st})
	once, stop := context.WithCancel(context.Background())
	stop()
	lease := func(worker string, ttl time.Duration) *Lease {
		t.Helper()
		l := m.LeaseJob(once, worker, nil, ttl)
		if l == nil {
			t.Fatal("nothing to lease")
		}
		return l
	}
	cases := []struct {
		name string
		run  func(id string)
	}{
		{"done", func(id string) {
			_ = m.CompleteLease(lease("w1", time.Minute).JobID, "w1", json.RawMessage(`{"cycles":7}`), nil)
		}},
		{"failed", func(id string) {
			_ = m.CompleteLease(lease("w1", time.Minute).JobID, "w1", nil, errors.New("sim: boom"))
		}},
		{"cancelled-while-queued", func(id string) { _, _ = m.Cancel(id) }},
		{"cancelled-while-running", func(id string) { lease("w1", time.Minute); _, _ = m.Cancel(id) }},
		{"lease-expired-to-failed", func(id string) {
			for i := 0; i < m.opts.MaxAttempts; i++ {
				lease(fmt.Sprintf("w%d", i), -time.Second)
				m.ExpireLeases(time.Now())
			}
		}},
		{"requeued-then-done", func(id string) {
			lease("w1", time.Minute)
			m.ReturnLease(id, "w1")
			_ = m.CompleteLease(lease("w2", time.Minute).JobID, "w2", json.RawMessage(`{"cycles":9}`), nil)
		}},
	}
	live := map[string]string{}
	ids := map[string]string{}
	for _, c := range cases {
		j, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"})
		if err != nil {
			t.Fatal(err)
		}
		c.run(j.ID)
		if !j.State().Terminal() {
			t.Fatalf("%s: ended %s", c.name, j.State())
		}
		b, _ := json.Marshal(j.Status())
		live[c.name], ids[c.name] = string(b), j.ID
	}
	shutdown(t, m)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2 := NewManager(Options{Store: st2})
	defer shutdown(t, m2) // before the store closes
	for _, c := range cases {
		j, err := m2.Get(ids[c.name])
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := json.Marshal(j.Status()); string(b) != live[c.name] {
			t.Errorf("%s: recovered status differs\n got %s\nwant %s", c.name, b, live[c.name])
		}
	}
}

// TestJobStateIsItsLog is the fold's property test: while submissions,
// leases, remote events, completions, returns, expiries and cancels run
// concurrently, every Status agrees with the fold of the log read with it.
// A read pair counts only when the log did not grow between the two reads,
// so both saw one moment; a field written apart from its edge shows there.
func TestJobStateIsItsLog(t *testing.T) {
	const jobsN, workers = 200, 4
	m := NewManager(Options{QueueDepth: jobsN, MaxJobs: 2 * jobsN})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
		shutdown(t, m)
	}()
	spawn := func(f func()) {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("w%d", w)
		spawn(func() {
			for ctx.Err() == nil {
				l := m.LeaseJob(ctx, name, nil, time.Duration(rand.Intn(3)-1)*time.Millisecond)
				if l == nil {
					return
				}
				_ = m.AppendRemote(l.JobID, name, []Event{{Type: "stage", Stage: "artifact", Seconds: 0.001}, {Type: "progress", Cycle: 5}})
				switch rand.Intn(4) {
				case 0:
					m.ReturnLease(l.JobID, name)
				case 1:
					_ = m.CompleteLease(l.JobID, name, nil, errors.New("sim: boom"))
				default:
					_ = m.CompleteLease(l.JobID, name, json.RawMessage(`{"cycles":1}`), nil)
				}
			}
		})
	}
	spawn(func() { // expiries and client cancels
		for ctx.Err() == nil {
			m.ExpireLeases(time.Now())
			if js := m.List(); len(js) > 0 && rand.Intn(3) == 0 {
				_, _ = m.Cancel(js[rand.Intn(len(js))].ID)
			}
			time.Sleep(50 * time.Microsecond)
		}
	})
	check := func() {
		for _, j := range m.List() {
			for {
				evs, grew, _ := j.EventsSince(0)
				st := j.Status()
				select {
				case <-grew:
					continue // an append fell between the reads: read again
				default:
				}
				checkAgainstLog(t, st, evs)
				checkNothingAfterTerminal(t, j.ID, evs)
				break
			}
		}
	}
	for i := 0; i < jobsN && !t.Failed(); i++ {
		if _, err := m.Submit(Spec{Workload: "sgemm", Scale: "tiny"}); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			check()
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for !t.Failed() {
		check()
		settled := true
		for _, j := range m.List() {
			settled = settled && j.State().Terminal()
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs still live after 10s")
		}
	}
}
