package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mosaicsim/internal/jobs"
)

// FuzzClusterWire sends arbitrary bodies to each /cluster/v1 handler of a
// coordinator holding one leased and one queued job of a tenant at its
// quota of three. Whatever arrives, the answer is a 2xx or a 4xx — never a
// panic, a 5xx or a request left hanging — and the manager's books still
// balance afterwards: leases out equals jobs running, and the tenant's live
// count equals its live jobs (one more submission is admitted exactly when
// fewer than three are live).
func FuzzClusterWire(f *testing.F) {
	for i, body := range []string{
		`{"name":"w1","slots":2}`,
		`{"name":"w","wait":60000000000}`,
		`{"name":"w","affinity":[1,2,18446744073709551615]}`,
		`{"name":"w","running":["j000001","j000002","nope"]}`,
		`{"name":"w","events":[{"seq":99,"type":"stage","stage":"artifact","cacheHit":true,"seconds":0.5},{"type":"progress","cycle":10}]}`,
		`{"name":"w","event":{"type":"progress","cycle":30,"final":true}}`,
		`{"name":"w","events":[{"type":"state","state":"done"}]}`,
		`{"name":"w","report":{"ok":true}}`,
		`{"name":"w","error":"boom"}`,
		`{"name":"other","report":{}}`,
		`{"name":"w","step_workers":4}`,
		`{"name":""}`, `{}`, `[]`, `null`, `{"name":`, ``,
	} {
		for ep := 0; ep < 5; ep++ {
			f.Add(uint8(ep), i%2 == 0, []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, leased bool, body []byte) {
		mgr := jobs.NewManager(jobs.Options{TenantQuota: 3})
		// A lease request may ask to be parked; the cap on that is the
		// heartbeat interval.
		coord := NewCoordinator(mgr, CoordinatorOptions{LeaseTTL: time.Hour, Heartbeat: time.Millisecond})
		spec := jobs.Spec{Workload: "sgemm", Scale: "tiny", Tenant: "acme"}
		var ids []string
		for i := 0; i < 2; i++ {
			j, err := mgr.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, j.ID)
		}
		if l := mgr.LeaseJob(context.Background(), "w", nil, time.Hour); l == nil || l.JobID != ids[0] {
			t.Fatalf("setup lease = %+v", l)
		}
		id := ids[1] // queued
		if leased {
			id = ids[0]
		}
		path := []string{
			"/cluster/v1/register", "/cluster/v1/lease", "/cluster/v1/heartbeat",
			"/cluster/v1/jobs/" + id + "/events", "/cluster/v1/jobs/" + id + "/complete",
		}[endpoint%5]

		rec := httptest.NewRecorder()
		served := make(chan struct{})
		go func() {
			defer close(served)
			coord.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		}()
		select {
		case <-served:
		case <-time.After(time.Second):
			t.Fatalf("POST %s %q still unanswered after 1s", path, body)
		}
		if c := rec.Code; c < 200 || c >= 500 || (c >= 300 && c < 400) {
			t.Errorf("POST %s %q = %d, want a 2xx or a 4xx", path, body, c)
		}

		running, live := 0, 0
		for _, j := range mgr.List() {
			switch st := j.State(); {
			case st == jobs.StateRunning:
				running++
				live++
			case !st.Terminal():
				live++
			}
		}
		if qs := mgr.QueueStats(); qs.Leased != running || qs.Depth != live-running {
			t.Errorf("after POST %s %q: %d leases out and %d queued, but %d jobs running and %d waiting", path, body, qs.Leased, qs.Depth, running, live-running)
		}
		_, err := mgr.Submit(spec)
		if admitted := err == nil; admitted != (live < 3) || (err != nil && !errors.Is(err, jobs.ErrTenantQuota)) {
			t.Errorf("after POST %s %q: tenant with %d live jobs and quota 3: submit err = %v", path, body, live, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		_ = mgr.Shutdown(ctx) // leases are still out: the deadline cancels them
	})
}
