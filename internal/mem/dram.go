package mem

import (
	"mosaicsim/internal/config"
)

// DRAMStats counts DRAM events.
type DRAMStats struct {
	Reads      int64
	Writebacks int64
	Bytes      int64
	Throttled  int64 // completions delayed by the bandwidth cap
	RowHits    int64 // banked model only
	RowMisses  int64 // banked model only
	Conflicts  int64 // banked model only
}

// reqHeap is a min-heap of requests keyed by earliest completion time.
type reqItem struct {
	ready int64
	seq   int64
	req   *Request
}

type reqHeap []reqItem

func (h reqHeap) Len() int { return len(h) }

func (h reqHeap) less(i, j int) bool {
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	return h[i].seq < h[j].seq
}

// push and pop replicate container/heap's sift sequence without boxing each
// reqItem through an interface (an allocation per queue operation on the
// miss path).
func (h *reqHeap) push(v reqItem) {
	a := append(*h, v)
	*h = a
	j := len(a) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !a.less(j, i) {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

func (h *reqHeap) pop() reqItem {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && a.less(j2, j) {
			j = j2
		}
		if !a.less(j, i) {
			break
		}
		a[i], a[j] = a[j], a[i]
		i = j
	}
	v := a[n]
	a[n] = reqItem{}
	*h = a[:n]
	return v
}

// SimpleDRAM is the paper's in-house DRAM model (§V-B): every request waits
// at least MinLatency, and completions are throttled to the configured
// maximum bandwidth per epoch. Requests past the epoch budget wait for the
// next epoch, modeling bandwidth contention.
type SimpleDRAM struct {
	Stats       DRAMStats
	minLat      int64
	epochCycles int64
	maxPerEpoch int64
	lineBytes   int64

	pq       reqHeap
	seq      int64
	curEpoch int64
	used     int64
	// throttledAt is the cycle of the latest tick, if it throttled, else -1.
	throttledAt int64
	// events counts observable state changes: the model's own counter, or
	// its Hierarchy's shared one.
	events    *int64
	ownEvents int64
}

// SimpleDRAMBudget returns the epoch length and per-epoch line budget the
// simple model enforces for a given clock and line size — the one bandwidth
// formula, shared by the model itself and by the schedule-replay engine,
// which must re-derive the budget for swept bandwidth parameters.
func SimpleDRAMBudget(cfg config.DRAMConfig, clockMHz, lineBytes int) (epochCycles, maxPerEpoch int64) {
	bytesPerCycle := cfg.BandwidthGBs * 1e9 / (float64(clockMHz) * 1e6)
	epoch := cfg.EpochCycles
	if epoch <= 0 {
		epoch = 100
	}
	maxLines := int64(bytesPerCycle * float64(epoch) / float64(lineBytes))
	if maxLines < 1 {
		maxLines = 1
	}
	return epoch, maxLines
}

// NewSimpleDRAM builds a SimpleDRAM for a core clock in MHz; bandwidth is
// converted to lines per epoch.
func NewSimpleDRAM(cfg config.DRAMConfig, clockMHz int, lineBytes int) *SimpleDRAM {
	epoch, maxLines := SimpleDRAMBudget(cfg, clockMHz, lineBytes)
	d := &SimpleDRAM{
		minLat:      cfg.MinLatency,
		epochCycles: epoch,
		maxPerEpoch: maxLines,
		lineBytes:   int64(lineBytes),
		curEpoch:    -1,
		throttledAt: -1,
	}
	d.events = &d.ownEvents
	return d
}

// MaxLinesPerEpoch exposes the computed bandwidth budget (for tests).
func (d *SimpleDRAM) MaxLinesPerEpoch() int64 { return d.maxPerEpoch }

// Access implements Level.
func (d *SimpleDRAM) Access(req *Request, now int64) {
	if req.Kind == Writeback {
		d.Stats.Writebacks++
	} else {
		d.Stats.Reads++
	}
	d.Stats.Bytes += int64(req.Size)
	d.seq++
	*d.events++
	d.pq.push(reqItem{ready: now + d.minLat, seq: d.seq, req: req})
}

// Busy implements Level.
func (d *SimpleDRAM) Busy() bool { return d.pq.Len() > 0 }

// NextEvent implements Level. A throttled DRAM promises nothing before the
// epoch boundary that resets the bandwidth budget — but it still reports the
// head's due cycle when that comes first: Throttled accrues from there, and
// only a real tick there starts the run that the next tick charges.
func (d *SimpleDRAM) NextEvent(now int64) int64 {
	if d.pq.Len() == 0 {
		return HorizonNone
	}
	ready := d.pq[0].ready
	if d.used >= d.maxPerEpoch && now/d.epochCycles == d.curEpoch {
		boundary := (now/d.epochCycles + 1) * d.epochCycles
		if ready > now && ready < boundary {
			return ready
		}
		return boundary
	}
	if ready <= now {
		return now + 1
	}
	return ready
}

// Tick implements Level: returns as many minimum-latency-served requests as
// the epoch's bandwidth budget allows. Every cycle a horizon jump elided after
// a throttled tick was throttled too (a jump never passes the epoch boundary
// that lifts it), so the tick that follows charges them.
func (d *SimpleDRAM) Tick(now int64) {
	if d.throttledAt >= 0 {
		d.Stats.Throttled += now - d.throttledAt - 1
		d.throttledAt = -1
	}
	epoch := now / d.epochCycles
	if epoch != d.curEpoch {
		d.curEpoch = epoch
		d.used = 0
	}
	for d.pq.Len() > 0 && d.pq[0].ready <= now {
		if d.used >= d.maxPerEpoch {
			d.Stats.Throttled++
			d.throttledAt = now
			return
		}
		it := d.pq.pop()
		d.used++
		*d.events++
		it.req.Finish(now)
	}
}

// BankedDRAM is the cycle-level bank/row model standing in for DRAMSim2
// (§V-B): open-page row buffers per bank, FR-FCFS scheduling, and DDR-style
// tRCD/tRP/tCAS/tBurst timing. It is slower to simulate than SimpleDRAM but
// captures row locality and bank conflicts.
type BankedDRAM struct {
	Stats DRAMStats
	cfg   config.DRAMConfig

	queue     []bankedReq
	banks     []bankState
	done      reqHeap
	seq       int64
	events    *int64 // as SimpleDRAM.events
	ownEvents int64
}

type bankedReq struct {
	req  *Request
	bank int
	row  uint64
	seq  int64
}

type bankState struct {
	openRow  uint64
	hasRow   bool
	nextFree int64
}

// NewBankedDRAM builds the banked model.
func NewBankedDRAM(cfg config.DRAMConfig) *BankedDRAM {
	nb := cfg.Channels * cfg.Banks
	if nb <= 0 {
		nb = 16
	}
	d := &BankedDRAM{cfg: cfg, banks: make([]bankState, nb)}
	d.events = &d.ownEvents
	return d
}

// Access implements Level.
func (d *BankedDRAM) Access(req *Request, now int64) {
	if req.Kind == Writeback {
		d.Stats.Writebacks++
	} else {
		d.Stats.Reads++
	}
	d.Stats.Bytes += int64(req.Size)
	rowBytes := uint64(d.cfg.RowBytes)
	if rowBytes == 0 {
		rowBytes = 2048
	}
	row := req.Addr / rowBytes
	bank := int(row) % len(d.banks)
	d.seq++
	*d.events++
	d.queue = append(d.queue, bankedReq{req: req, bank: bank, row: row, seq: d.seq})
}

// Busy implements Level.
func (d *BankedDRAM) Busy() bool { return len(d.queue) > 0 || d.done.Len() > 0 }

// NextEvent implements Level: the earliest of the next completion and the
// next bank becoming free for a queued request. A request whose bank is free
// now may only be deferred by channel arbitration, i.e. by one cycle.
func (d *BankedDRAM) NextEvent(now int64) int64 {
	h := HorizonNone
	if d.done.Len() > 0 && d.done[0].ready < h {
		h = d.done[0].ready
	}
	for i := range d.queue {
		nf := d.banks[d.queue[i].bank].nextFree
		if nf <= now {
			return now + 1
		}
		if nf < h {
			h = nf
		}
	}
	if h <= now {
		return now + 1
	}
	return h
}

// Tick implements Level: FR-FCFS — issue row hits first, then the oldest
// request whose bank is free; one issue per channel per cycle.
func (d *BankedDRAM) Tick(now int64) {
	for d.done.Len() > 0 && d.done[0].ready <= now {
		it := d.done.pop()
		*d.events++
		it.req.Finish(now)
	}
	channels := d.cfg.Channels
	if channels <= 0 {
		channels = 1
	}
	for ch := 0; ch < channels; ch++ {
		idx := d.pick(now, ch, channels)
		if idx < 0 {
			continue
		}
		br := d.queue[idx]
		d.queue = append(d.queue[:idx], d.queue[idx+1:]...)
		b := &d.banks[br.bank]
		var lat int64
		switch {
		case b.hasRow && b.openRow == br.row:
			d.Stats.RowHits++
			lat = d.cfg.TCAS + d.cfg.TBurst
		case !b.hasRow:
			d.Stats.RowMisses++
			lat = d.cfg.TRCD + d.cfg.TCAS + d.cfg.TBurst
		default:
			d.Stats.Conflicts++
			lat = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS + d.cfg.TBurst
		}
		b.hasRow = true
		b.openRow = br.row
		b.nextFree = now + lat
		*d.events++
		d.done.push(reqItem{ready: now + lat, seq: br.seq, req: br.req})
	}
}

// pick selects the next request for a channel: first ready row hit, else the
// oldest request whose bank is free.
func (d *BankedDRAM) pick(now int64, ch, channels int) int {
	oldest := -1
	for i, br := range d.queue {
		if br.bank%channels != ch {
			continue
		}
		b := &d.banks[br.bank]
		if b.nextFree > now {
			continue
		}
		if b.hasRow && b.openRow == br.row {
			return i // row hit wins immediately (FR-FCFS)
		}
		if oldest < 0 || br.seq < d.queue[oldest].seq {
			oldest = i
		}
	}
	return oldest
}

// NewDRAM constructs the configured DRAM model.
func NewDRAM(cfg config.DRAMConfig, clockMHz, lineBytes int) Level {
	switch cfg.Model {
	case config.DRAMBanked:
		return NewBankedDRAM(cfg)
	default:
		return NewSimpleDRAM(cfg, clockMHz, lineBytes)
	}
}
