package main

import (
	"strings"
	"testing"

	"mosaicsim/internal/jobs"
	"mosaicsim/internal/store"
)

// TestRoleOptions: admission control (tenant quota, queue bound) and the job
// store stay with the roles that admit jobs; a worker's local manager takes
// whatever its slots can hold, because the coordinator already admitted it.
func TestRoleOptions(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	flags := jobs.Options{Workers: 1, QueueDepth: 1, TenantQuota: 1, MaxAttempts: 5, Replay: true}

	for _, tc := range []struct {
		role                  string
		slots                 int
		workers, queue, quota int
		store                 bool
	}{
		{role: "standalone", slots: 4, workers: 1, queue: 1, quota: 1, store: true},
		{role: "coordinator", slots: 4, workers: -1, queue: 1, quota: 1, store: true},
		// -role worker -slots 2 -tenant-quota 1 used to fail the second
		// same-tenant lease, and -workers 1 -slots 4 -queue 1 the third lease.
		{role: "worker", slots: 4, workers: 1, queue: 4, quota: 0},
		{role: "worker", slots: 1, workers: 1, queue: 1, quota: 0},
	} {
		got, err := roleOptions(tc.role, flags, st, tc.slots)
		if err != nil {
			t.Errorf("%s: %v", tc.role, err)
			continue
		}
		if got.Workers != tc.workers || got.QueueDepth != tc.queue || got.TenantQuota != tc.quota || (got.Store != nil) != tc.store {
			t.Errorf("%s slots=%d: workers=%d queue=%d quota=%d store=%v, want %d %d %d %v", tc.role, tc.slots,
				got.Workers, got.QueueDepth, got.TenantQuota, got.Store != nil, tc.workers, tc.queue, tc.quota, tc.store)
		}
		if got.MaxAttempts != flags.MaxAttempts || got.Replay != flags.Replay {
			t.Errorf("%s: unrelated options changed: %+v", tc.role, got)
		}
	}
	// A queue already deeper than the slots is left alone.
	deep := flags
	deep.QueueDepth = 64
	if got, _ := roleOptions("worker", deep, nil, 4); got.QueueDepth != 64 {
		t.Errorf("worker queue depth = %d, want the configured 64", got.QueueDepth)
	}
	if _, err := roleOptions("wroker", flags, nil, 1); err == nil || !strings.Contains(err.Error(), `unknown -role "wroker"`) {
		t.Errorf("unknown role: err = %v", err)
	}
}
