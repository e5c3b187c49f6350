package soc

// Schedule recording: what a replay engine (internal/replay) needs from a
// full timing run beyond its Result. Every accelerator invocation is reported
// with the exact inputs the model saw (parameters and the concurrency level)
// and the answer it gave, so a later run can re-invoke the models it is
// offered and prove they answer the same. A bandwidth or epoch delta needs
// nothing more: the Result's DRAM counts (traffic, throttled cycles) and the
// recorded budget prove it. Nothing is observed inside Run's loop: a
// recorded run steps and jumps exactly as an unrecorded one.

// RecordSchedule makes the coming Run report every accelerator invocation to
// onInvoke. It must be called before Run. params is the live slice —
// onInvoke must copy it — and the hook runs on the simulating goroutine, so
// it must be cheap.
func (s *System) RecordSchedule(onInvoke func(name string, params []int64, concurrent int, res AccelResult)) {
	s.accel.onInvoke = onInvoke
}
