// Package tenant is the per-tenant (credential DN) accounting plane: a
// fixed-memory answer to "who is consuming the fleet?" across an
// unbounded tenant population. It is the observability prerequisite for
// per-tenant admission control and QoS — isolation claims are
// unprovable without per-tenant SLIs — and the hosted-service framing
// of the paper makes the DN, not the task, the billing unit.
//
// The core is a space-saving heavy-hitter sketch (Metwally et al.,
// "Efficient computation of frequent and top-k elements in data
// streams"): Capacity counter slots keyed by DN, weighted by bytes
// moved (plus one unit per control event so pure-control tenants still
// register). A DN already in the table is counted exactly; a new DN
// arriving at a full table evicts the minimum-weight slot and inherits
// its weight as overestimate error. That yields the classic guarantees,
// with N = total observed weight and C = Capacity:
//
//   - per-slot overestimate ≤ N/C (each slot also tracks its own exact
//     bound in Err, set at eviction time);
//   - any tenant whose true weight exceeds N/C is guaranteed present;
//   - memory is O(C) regardless of how many distinct DNs pass through.
//
// Alongside the ranking weight each slot carries exact-since-admission
// operational aggregates: tasks submitted/failed, commands and command
// errors, queue-wait time, bytes, and a live active-transfer gauge.
//
// The plane feeds the tsdb through a bounded series budget: only the
// top-K tenants get "tenant.<hash>.*" series (hash, not rank, so a
// tenant's timeline is stable while it stays in the set), and a tenant
// dropping out of the top-K has its series retired through
// obs.RetireSeries — series count stays ≤ K live plus whatever the
// recorder's retire horizon is still draining, no matter how many
// tenants churn through. Fleet-level summary series (tenant.top_share,
// tenant.error_burn, tenant.tracked, ...) drive the DefaultRules
// tenant alerts.
//
// Every method is nil-receiver safe so call sites stay branch-free,
// matching the obs facility contract.
package tenant

import (
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"gridftp.dev/instant/internal/obs"
)

// SeriesPrefix is the namespace of every series this plane publishes.
const SeriesPrefix = "tenant."

// Options configures an Accountant. Zero fields take the defaults.
type Options struct {
	// Capacity is the sketch's slot count C: the number of distinct DNs
	// tracked simultaneously and the denominator of the N/C error bound
	// (default 512).
	Capacity int
	// TopK is how many tenants get tsdb series and appear in the default
	// /tenants view (default 10).
	TopK int
	// Obs receives the published series and events; nil discards.
	Obs *obs.Obs
}

func (o Options) withDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = 512
	}
	if o.TopK <= 0 {
		o.TopK = 10
	}
	if o.TopK > o.Capacity {
		o.TopK = o.Capacity
	}
	return o
}

// slot is one tracked tenant: the space-saving counter pair plus exact
// operational aggregates accumulated since this DN was (last) admitted.
type slot struct {
	dn     string
	weight int64 // space-saving count: bytes + control events, incl. inherited overestimate
	err    int64 // overestimate bound inherited from the slot evicted at admission

	bytes       int64
	tasks       int64
	tasksFailed int64
	commands    int64
	cmdErrors   int64
	queueWait   time.Duration
	active      int64
	firstSeen   time.Time
	lastSeen    time.Time

	heapIdx int // position in the min-weight heap
}

// pubState tracks one published tenant between Publish ticks so the
// publisher can emit interval rates and retire drop-outs.
type pubState struct {
	lastBytes int64
}

// Accountant is the concurrency-safe accounting plane. The zero value
// is not usable; construct with New. A nil *Accountant discards all
// observations and reports empty views.
type Accountant struct {
	opts Options

	mu         sync.Mutex
	slots      map[string]*slot
	heap       []*slot // min-heap on weight: heap[0] is the eviction victim
	totalW     int64   // N: exact total observed weight (never decays)
	totalBytes int64
	admissions int64 // distinct-DN admissions (population proxy)
	evictions  int64

	// Publisher state (guarded by mu): hashes with live series, and the
	// last published clock for interval rates.
	published   map[string]*pubState
	lastPublish time.Time
}

// New returns an empty accountant with the given geometry.
func New(opts Options) *Accountant {
	o := opts.withDefaults()
	return &Accountant{
		opts:      o,
		slots:     make(map[string]*slot, o.Capacity),
		heap:      make([]*slot, 0, o.Capacity),
		published: make(map[string]*pubState),
	}
}

// touch is the space-saving update: charge weightDelta to dn, admitting
// it (and evicting the minimum slot when full) if unseen. Returns the
// slot with a.mu held by the caller.
func (a *Accountant) touch(dn string, weightDelta int64, now time.Time) *slot {
	s, ok := a.slots[dn]
	if !ok {
		if len(a.slots) < a.opts.Capacity {
			s = &slot{dn: dn, firstSeen: now}
			a.slots[dn] = s
			a.heapPush(s)
		} else {
			// Evict the minimum-weight tenant; the newcomer inherits its
			// weight as overestimate error (the classic space-saving
			// replacement, which is what keeps heavy hitters from being
			// displaced by a churn of one-shot tenants).
			victim := a.heap[0]
			delete(a.slots, victim.dn)
			a.evictions++
			inherited := victim.weight
			*victim = slot{dn: dn, weight: inherited, err: inherited, firstSeen: now, heapIdx: 0}
			a.slots[dn] = victim
			s = victim
		}
		a.admissions++
	}
	s.weight += weightDelta
	s.lastSeen = now
	a.totalW += weightDelta
	a.heapFix(s)
	return s
}

// heap helpers: a hand-rolled min-heap on slot.weight keeping heapIdx
// coherent so touch can re-sift an arbitrary slot in O(log C).

func (a *Accountant) heapPush(s *slot) {
	s.heapIdx = len(a.heap)
	a.heap = append(a.heap, s)
	a.siftUp(s.heapIdx)
}

func (a *Accountant) heapFix(s *slot) {
	// Weights only grow, so a touched slot can only move toward the
	// leaves of a min-heap.
	a.siftDown(s.heapIdx)
}

func (a *Accountant) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if a.heap[parent].weight <= a.heap[i].weight {
			return
		}
		a.heapSwap(parent, i)
		i = parent
	}
}

func (a *Accountant) siftDown(i int) {
	n := len(a.heap)
	for {
		min, l, r := i, 2*i+1, 2*i+2
		if l < n && a.heap[l].weight < a.heap[min].weight {
			min = l
		}
		if r < n && a.heap[r].weight < a.heap[min].weight {
			min = r
		}
		if min == i {
			return
		}
		a.heapSwap(min, i)
		i = min
	}
}

func (a *Accountant) heapSwap(i, j int) {
	a.heap[i], a.heap[j] = a.heap[j], a.heap[i]
	a.heap[i].heapIdx, a.heap[j].heapIdx = i, j
}

// BytesMoved attributes n transferred bytes to dn — the primary
// consumption signal and the sketch's ranking weight.
func (a *Accountant) BytesMoved(dn string, n int64) {
	if a == nil || dn == "" || n <= 0 {
		return
	}
	now := time.Now()
	a.mu.Lock()
	s := a.touch(dn, n, now)
	s.bytes += n
	a.totalBytes += n
	a.mu.Unlock()
}

// TaskSubmitted attributes one hosted-transfer submission to dn.
func (a *Accountant) TaskSubmitted(dn string) {
	if a == nil || dn == "" {
		return
	}
	now := time.Now()
	a.mu.Lock()
	s := a.touch(dn, 1, now)
	s.tasks++
	a.mu.Unlock()
}

// TaskDone attributes a task's terminal outcome to dn.
func (a *Accountant) TaskDone(dn string, ok bool) {
	if a == nil || dn == "" {
		return
	}
	now := time.Now()
	a.mu.Lock()
	s := a.touch(dn, 1, now)
	if !ok {
		s.tasksFailed++
	}
	a.mu.Unlock()
}

// Command attributes one control-channel command to dn; failed marks a
// 4xx/5xx reply.
func (a *Accountant) Command(dn string, failed bool) {
	if a == nil || dn == "" {
		return
	}
	now := time.Now()
	a.mu.Lock()
	s := a.touch(dn, 1, now)
	s.commands++
	if failed {
		s.cmdErrors++
	}
	a.mu.Unlock()
}

// QueueWait attributes time dn's transfer spent waiting for an
// admission slot.
func (a *Accountant) QueueWait(dn string, d time.Duration) {
	if a == nil || dn == "" || d < 0 {
		return
	}
	now := time.Now()
	a.mu.Lock()
	s := a.touch(dn, 1, now)
	s.queueWait += d
	a.mu.Unlock()
}

// TransferStarted / TransferEnded maintain dn's live active-transfer
// gauge around the data-moving span.
func (a *Accountant) TransferStarted(dn string) { a.transferDelta(dn, +1) }

// TransferEnded is the paired decrement for TransferStarted.
func (a *Accountant) TransferEnded(dn string) { a.transferDelta(dn, -1) }

func (a *Accountant) transferDelta(dn string, d int64) {
	if a == nil || dn == "" {
		return
	}
	now := time.Now()
	a.mu.Lock()
	s := a.touch(dn, 1, now)
	if s.active += d; s.active < 0 {
		s.active = 0 // an eviction between start and end loses the +1
	}
	a.mu.Unlock()
}

// Stat is one tenant's accounting snapshot — the /tenants wire shape.
type Stat struct {
	Rank int    `json:"rank"`
	DN   string `json:"dn"`
	// Hash is the stable 8-hex-digit FNV-1a identifier used in series
	// names (series must not embed raw DNs: they carry /CN= slashes and
	// unbounded length).
	Hash string `json:"hash"`
	// Weight is the space-saving count (bytes + control events,
	// including inherited overestimate); Err is this slot's overestimate
	// bound — true weight lies in [Weight-Err, Weight].
	Weight int64 `json:"weight"`
	Err    int64 `json:"err"`

	Bytes            int64     `json:"bytes"`
	Tasks            int64     `json:"tasks"`
	TasksFailed      int64     `json:"tasks_failed"`
	Commands         int64     `json:"commands"`
	CommandErrors    int64     `json:"command_errors"`
	QueueWaitSeconds float64   `json:"queue_wait_seconds"`
	Active           int64     `json:"active"`
	ErrorRate        float64   `json:"error_rate"`
	Share            float64   `json:"share"`
	FirstSeen        time.Time `json:"first_seen"`
	LastSeen         time.Time `json:"last_seen"`
}

// Hash returns the stable series-name identifier for a DN.
func Hash(dn string) string {
	h := fnv.New32a()
	h.Write([]byte(dn))
	const hex = "0123456789abcdef"
	v := h.Sum32()
	var b [8]byte
	for i := 7; i >= 0; i-- {
		b[i] = hex[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

func (s *slot) stat(totalBytes int64) Stat {
	st := Stat{
		DN: s.dn, Hash: Hash(s.dn),
		Weight: s.weight, Err: s.err,
		Bytes: s.bytes, Tasks: s.tasks, TasksFailed: s.tasksFailed,
		Commands: s.commands, CommandErrors: s.cmdErrors,
		QueueWaitSeconds: s.queueWait.Seconds(),
		Active:           s.active,
		FirstSeen:        s.firstSeen, LastSeen: s.lastSeen,
	}
	if events := s.tasks + s.commands; events > 0 {
		st.ErrorRate = float64(s.tasksFailed+s.cmdErrors) / float64(events)
	}
	if totalBytes > 0 {
		st.Share = float64(s.bytes) / float64(totalBytes)
	}
	return st
}

// TopK returns the k heaviest tenants (k ≤ 0 takes Options.TopK),
// ranked by sketch weight, with Share computed against total observed
// bytes. The result is a consistent snapshot.
func (a *Accountant) TopK(k int) []Stat {
	if a == nil {
		return nil
	}
	if k <= 0 {
		k = a.opts.TopK
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.topKLocked(k)
}

func (a *Accountant) topKLocked(k int) []Stat {
	out := make([]Stat, 0, len(a.slots))
	for _, s := range a.slots {
		out = append(out, s.stat(a.totalBytes))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].DN < out[j].DN
	})
	if len(out) > k {
		out = out[:k]
	}
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
}

// Summary is the plane-level accounting snapshot.
type Summary struct {
	// Tracked is the number of DNs currently holding slots; Capacity the
	// sketch size C.
	Tracked  int `json:"tracked"`
	Capacity int `json:"capacity"`
	TopK     int `json:"top_k"`
	// Admissions counts distinct-DN slot grants (a population proxy:
	// every DN ever seen was admitted at least once); Evictions how many
	// of those were displaced.
	Admissions int64 `json:"admissions"`
	Evictions  int64 `json:"evictions"`
	// TotalWeight is N in the N/C error bound; MaxError is the bound
	// itself, the worst-case overestimate of any reported weight.
	TotalWeight int64 `json:"total_weight"`
	MaxError    int64 `json:"max_error"`
	TotalBytes  int64 `json:"total_bytes"`
}

// Stats reports the plane-level summary.
func (a *Accountant) Stats() Summary {
	if a == nil {
		return Summary{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Summary{
		Tracked: len(a.slots), Capacity: a.opts.Capacity, TopK: a.opts.TopK,
		Admissions: a.admissions, Evictions: a.evictions,
		TotalWeight: a.totalW, TotalBytes: a.totalBytes,
	}
	if a.opts.Capacity > 0 {
		s.MaxError = a.totalW / int64(a.opts.Capacity)
	}
	return s
}

// Publish emits one tick of series into the configured Obs: per-top-K
// tenant timelines under "tenant.<hash>." plus the plane summary
// series, and retires the series of tenants that dropped out of the
// top-K since the previous tick. Driven by Start in production, called
// directly with synthetic order in tests.
func (a *Accountant) Publish(now time.Time) {
	if a == nil {
		return
	}
	a.mu.Lock()
	top := a.topKLocked(a.opts.TopK)
	interval := now.Sub(a.lastPublish)
	first := a.lastPublish.IsZero()
	a.lastPublish = now

	type emit struct {
		name string
		v    float64
	}
	var emits []emit
	var retire []string

	current := make(map[string]bool, len(top))
	var maxRate, totalRate, errBurn float64
	ratedTenants := 0
	for _, st := range top {
		current[st.Hash] = true
		prefix := SeriesPrefix + st.Hash + "."
		ps, seen := a.published[st.Hash]
		if !seen {
			ps = &pubState{lastBytes: st.Bytes}
			a.published[st.Hash] = ps
		}
		var rate float64
		if seen && !first && interval > 0 {
			rate = float64(st.Bytes-ps.lastBytes) / interval.Seconds()
			if rate < 0 {
				rate = 0 // slot was recycled to another DN and back
			}
		}
		ps.lastBytes = st.Bytes
		if rate > 0 {
			ratedTenants++
			totalRate += rate
			if rate > maxRate {
				maxRate = rate
			}
		}
		if st.ErrorRate > errBurn {
			errBurn = st.ErrorRate
		}
		emits = append(emits,
			emit{prefix + "bytes_per_sec", rate},
			emit{prefix + "bytes_total", float64(st.Bytes)},
			emit{prefix + "active", float64(st.Active)},
			emit{prefix + "error_rate", st.ErrorRate},
		)
	}
	for hash := range a.published {
		if !current[hash] {
			delete(a.published, hash)
			retire = append(retire, SeriesPrefix+hash+".")
		}
	}
	// top_share is only meaningful as a capture signal when more than
	// one tenant moved bytes this interval: a single-tenant box always
	// has share 1.0 and must not warn.
	topShare := 0.0
	if ratedTenants >= 2 && totalRate > 0 {
		topShare = maxRate / totalRate
	}
	emits = append(emits,
		emit{SeriesPrefix + "top_share", topShare},
		emit{SeriesPrefix + "error_burn", errBurn},
		emit{SeriesPrefix + "tracked", float64(len(a.slots))},
		emit{SeriesPrefix + "admissions", float64(a.admissions)},
		emit{SeriesPrefix + "evictions", float64(a.evictions)},
	)
	o := a.opts.Obs
	a.mu.Unlock()

	sink := o.TimeSeries()
	for _, e := range emits {
		sink.Observe(e.name, now, e.v)
	}
	for _, prefix := range retire {
		o.RetireSeries(prefix)
	}
}

// Start launches the background publisher, once a second to match the
// tsdb raw tier; the returned stop halts it (obs.Every's contract).
func (a *Accountant) Start() (stop func()) {
	if a == nil {
		return func() {}
	}
	return obs.Every(time.Second, a.Publish)
}
