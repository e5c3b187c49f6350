package jobs

import "math"

// The admission priority classes, highest first. A queued high job is always
// leased before a normal one, and normal before low; within a class the
// queue is FIFO. Classes are fixed (not a numeric priority) so starvation
// analysis and per-class metrics stay tractable.
const (
	PriorityHigh   = "high"
	PriorityNormal = "normal"
	PriorityLow    = "low"
)

// priorityClasses lists the classes in dequeue order.
var priorityClasses = []string{PriorityHigh, PriorityNormal, PriorityLow}

// classRank maps a priority class to its queue index (unknown names were
// rejected at admission; the default class is normal).
func classRank(p string) int {
	switch p {
	case PriorityHigh:
		return 0
	case PriorityLow:
		return 2
	default:
		return 1
	}
}

// queueDepthLocked is the number of waiting jobs across all classes.
func (m *Manager) queueDepthLocked() int {
	n := 0
	for i := range m.queues {
		n += len(m.queues[i])
	}
	return n
}

// enqueueLocked adds a queued job to its class queue (front-of-class when
// requeueing after a lost lease, so recovery latency is not paid twice) and
// wakes every parked lease request.
func (m *Manager) enqueueLocked(j *Job, front bool) {
	c := classRank(j.Spec.Priority)
	if front {
		m.queues[c] = append([]*Job{j}, m.queues[c]...)
	} else {
		m.queues[c] = append(m.queues[c], j)
	}
	m.noteDepthLocked()
	m.wakeLocked()
}

// wakeLocked releases every LeaseJob call parked on the current wake channel
// to look at the queue (or the draining flag) again.
func (m *Manager) wakeLocked() {
	close(m.wake)
	m.wake = make(chan struct{})
}

// popLocked removes and returns the front of the highest nonempty class
// (nil when every class is empty).
func (m *Manager) popLocked() *Job {
	for c := range m.queues {
		if len(m.queues[c]) > 0 {
			j := m.queues[c][0]
			m.queues[c] = m.queues[c][1:]
			m.noteDepthLocked()
			return j
		}
	}
	return nil
}

// removeQueuedLocked drops a specific job from its class queue (cancelled
// while queued), if it is there.
func (m *Manager) removeQueuedLocked(j *Job) {
	c := classRank(j.Spec.Priority)
	for i, q := range m.queues[c] {
		if q == j {
			m.queues[c] = append(m.queues[c][:i], m.queues[c][i+1:]...)
			m.noteDepthLocked()
			return
		}
	}
}

// noteDepthLocked refreshes the queue-depth gauges.
func (m *Manager) noteDepthLocked() {
	m.mQueueDepth.Set(int64(m.queueDepthLocked()))
	for i, p := range priorityClasses {
		m.mClassDepth[p].Set(int64(len(m.queues[i])))
	}
}

// QueueStats is a point-in-time admission snapshot, shaped for health and
// readiness probes: Accepting is false exactly when a submission right now
// would be shed (draining or at capacity).
type QueueStats struct {
	Depth     int  `json:"queueDepth"`
	Capacity  int  `json:"queueCapacity"`
	Running   int  `json:"running"`
	Leased    int  `json:"leased"`
	Draining  bool `json:"draining"`
	Accepting bool `json:"accepting"`
}

// QueueStats snapshots the admission queue.
func (m *Manager) QueueStats() QueueStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := QueueStats{
		Depth:    m.queueDepthLocked(),
		Capacity: m.opts.QueueDepth,
		Running:  int(m.mLeasesActive.Value()), // a job runs exactly while it is leased
		Leased:   int(m.mLeasesActive.Value()),
		Draining: m.draining,
	}
	st.Accepting = !m.draining && st.Depth < st.Capacity
	return st
}

// RetryAfter derives the Retry-After hint (in whole seconds) a shed
// submission should carry: the estimated time for the current backlog to
// drain through the execution slots known to exist, using the observed mean
// run time — under a deep queue of slow jobs a fixed 1s retry storm only
// amplifies the overload. Clamped to [1, 60]; a draining manager answers 30
// (clients should find another replica).
func (m *Manager) RetryAfter() int {
	m.mu.Lock()
	depth := m.queueDepthLocked()
	draining := m.draining
	// Each active lease is an executor slot proven to exist, and a queue
	// deep enough to shed means every slot is holding one.
	slots := max(1, int(m.mLeasesActive.Value()))
	m.mu.Unlock()
	if draining {
		return 30
	}
	mean := 1.0 // no completed run yet: assume a second
	if h := m.mStage["run"]; h != nil && h.Count() > 0 {
		mean = h.Sum() / float64(h.Count())
	}
	est := int(math.Ceil(float64(depth+1) * mean / float64(slots)))
	if est < 1 {
		est = 1
	}
	if est > 60 {
		est = 60
	}
	return est
}
