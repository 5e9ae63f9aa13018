package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/similarity"
)

// This file scales one key pass out across shards. The sorted GK order
// of a pass is split into contiguous owned ranges; each shard reads
// its range plus a halo of the preceding keep-1 rows (the maximum
// extent a window can look back, adaptive widening included) and runs
// the ordinary window sweep over it. Ownership is keyed by the current
// (right-hand) row of a pair: halo rows feed the ring for context but
// are never swept by the reading shard, so every window pair is
// enumerated by exactly one shard and the concatenation of the shard
// event streams, in shard order, is precisely the sequential pair
// order. The coordinator replays that concatenation one event at a
// time, applying the exact ordered bookkeeping of the sequential
// loop — WindowPairs, metric flush cadence, budget polls, compared-set
// dedup, comparison charges, merge — so clusters, Stats, checkpoints,
// PairObserver calls, and interrupted partial results are
// byte-identical to the unsharded engine.
//
// Shards pre-filter against a snapshot of the compared set taken at
// pass start. Within one pass each unordered row pair occurs at most
// once across all shards (each is keyed by a unique current-row
// index), so a pair absent from the snapshot cannot be inserted by a
// concurrent shard before its own replay: snapshot-seen and
// live-seen coincide, and the replay verifies that invariant.

const (
	// shardBatchEvents is how many pair events a shard buffers before
	// shipping them to the coordinator.
	shardBatchEvents = 1024
	// shardChanDepth bounds the batches a shard may run ahead of the
	// coordinator's replay position.
	shardChanDepth = 4
	// shardSpillFDBudget caps the file descriptors a sharded spilling
	// pass holds open at once: every in-flight shard's range reader
	// keeps all of the pass's run files open, so the in-flight window
	// shrinks as the run count grows (down to one shard at a time for
	// pathologically fragmented spills).
	shardSpillFDBudget = 4096
)

// errShardAbandoned tells a shard worker the coordinator stopped
// consuming (an earlier shard erred or the replay was interrupted).
// The worker unwinds silently; the coordinator already has its error.
var errShardAbandoned = errors.New("core: shard abandoned")

// shardCount resolves Options.Shards: negative means one shard per
// available CPU, 0 means the unsharded path.
func (o *Options) shardCount() int {
	if o.Shards < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Shards
}

// shardRange is one shard's slice of a pass's sorted row order.
type shardRange struct {
	index     int
	haloStart int // first row read, for window context only
	start     int // first row owned: pairs (j, i) with i in [start, end)
	end       int // one past the last owned row
}

// planShards splits n sorted rows into at most want contiguous owned
// ranges. The ranges partition [0, n) exactly — every row is owned by
// exactly one shard — and each halo reaches back keep-1 rows (clamped
// at 0), the widest lookback any window can make. want is clamped to
// [1, n] so every planned shard owns at least one row; n == 0 plans
// nothing.
func planShards(n, keep, want int) []shardRange {
	if n <= 0 {
		return nil
	}
	s := want
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	out := make([]shardRange, s)
	for i := 0; i < s; i++ {
		start, end := n*i/s, n*(i+1)/s
		halo := start - (keep - 1)
		if halo < 0 {
			halo = 0
		}
		out[i] = shardRange{index: i, haloStart: halo, start: start, end: end}
	}
	return out
}

// shardBatch is one message from a shard worker to the coordinator: a
// run of pair events in window order, and on the final batch (fin) the
// shard's outcome — its source error if it failed, and the count of
// halo pairs it observed but left to the owning shard.
type shardBatch struct {
	events      []pairVerdict
	fin         bool
	err         error
	haloDeduped int64
}

// shardEnv bundles the per-candidate state a sharded pass needs.
// Everything mutable (cstats, compared, budget charges, the merge
// closure's pair list and counters) is touched only by the
// coordinator's replay; workers read the immutable table, options, and
// the concurrency-safe similarity cache.
type shardEnv struct {
	t        *GKTable
	cand     *config.Candidate
	opts     Options
	cache    *similarity.Cache
	useDesc  bool
	w, keep  int
	spiller  *candSpiller
	order    []int // shared in-memory sort permutation; nil when spilling
	bud      *budget
	m        *obs.Metrics
	cstats   *CandidateStats
	compared map[uint64]struct{}
	flushObs func()
	merge    func(*pairVerdict) error
}

// replay applies one shard event with the sequential loop's exact
// ordered bookkeeping. Skip events replay only the enumeration half
// (WindowPairs, metric flush, budget poll, dedup); compute events
// additionally insert into the compared set, charge the comparison
// budget, and merge. A worker panic re-raises after the charge — the
// position the sequential run would have panicked, so an interruption
// tripping at the same pair still wins.
func (e *shardEnv) replay(v *pairVerdict) error {
	e.cstats.WindowPairs++
	if e.m != nil && e.cstats.WindowPairs&0xFFF == 0 {
		e.flushObs()
	}
	if err := e.bud.poll(e.cstats.WindowPairs); err != nil {
		return err
	}
	key := packPair(v.a.EID, v.b.EID)
	if _, seen := e.compared[key]; seen {
		if !v.skip {
			return fmt.Errorf("core: candidate %q: shard replay: pair (%d,%d) compared twice",
				e.cand.Name, v.a.EID, v.b.EID)
		}
		return nil
	}
	if v.skip {
		return fmt.Errorf("core: candidate %q: shard replay: pair (%d,%d) marked seen but never compared",
			e.cand.Name, v.a.EID, v.b.EID)
	}
	e.compared[key] = struct{}{}
	if err := e.bud.addComparison(); err != nil {
		return err
	}
	if v.panicked != nil {
		panic(v.panicked)
	}
	return e.merge(v)
}

// runShardedPass executes one key pass sharded. An interruption error
// (budget, deadline, cancellation) or hard error returns with the
// candidate state exactly as the sequential loop would leave it at the
// same point; the caller applies the usual interrupt or abort path.
func runShardedPass(env *shardEnv, pass, want int, swSpan, passSpan *obs.Span) error {
	n := len(env.t.Rows)
	shards := planShards(n, env.keep, want)

	// inFlight bounds how many shard workers run concurrently. Workers
	// start in shard order and the coordinator consumes in shard order,
	// so the active window always contains the shard being replayed —
	// no starvation, bounded sources, rings, and batch buffers.
	inFlight := runtime.GOMAXPROCS(0)
	if inFlight < 2 {
		inFlight = 2
	}

	// Resolve the pass's row order once, then hand each shard a reader
	// over its own extent: a range merge over the shared run files when
	// spilling, a sub-slice of the shared sort permutation in memory.
	var open func(sr shardRange) (rowSource, error)
	if env.spiller != nil {
		// The external sort does real I/O before the first pair is
		// enumerated; check the budget around it, as the sequential
		// spill path does.
		if env.bud.active {
			if err := env.bud.check(); err != nil {
				return err
			}
		}
		cfg, runs, err := env.spiller.runsFor(pass, swSpan, env.bud)
		if err != nil {
			return err
		}
		if c := shardSpillFDBudget / (len(runs) + 1); c < inFlight {
			inFlight = c
		}
		if inFlight < 1 {
			inFlight = 1
		}
		open = func(sr shardRange) (rowSource, error) {
			return env.spiller.rangeSource(cfg, runs, pass, int64(sr.haloStart), int64(sr.end))
		}
	} else {
		order := env.order
		sortPass(order, env.t.Rows, pass)
		open = func(sr shardRange) (rowSource, error) {
			return &memSource{t: env.t, order: order[sr.haloStart:sr.end]}, nil
		}
	}
	if len(shards) == 0 {
		return nil // empty table: no rows, no pairs
	}

	snapshot := make(map[uint64]struct{}, len(env.compared))
	for k := range env.compared {
		snapshot[k] = struct{}{}
	}

	done := make(chan struct{})
	chans := make([]chan shardBatch, len(shards))
	var wg sync.WaitGroup
	started := 0
	startNext := func() {
		if started >= len(shards) {
			return
		}
		sr := shards[started]
		ch := make(chan shardBatch, shardChanDepth)
		chans[started] = ch
		started++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(ch)
			shardWorker(env, pass, sr, snapshot, open, ch, done)
		}()
	}
	for k := 0; k < inFlight; k++ {
		startNext()
	}
	// teardown stops and joins every started worker; idempotent so the
	// happy path can join explicitly while error returns and replay
	// panics fall through to the deferred call.
	torn := false
	teardown := func() {
		if torn {
			return
		}
		torn = true
		close(done)
		for _, ch := range chans[:started] {
			for range ch { //nolint:revive // drain so blocked senders unwind
			}
		}
		wg.Wait()
	}
	defer teardown()

	for si := range shards {
		sr := shards[si]
		sp := passSpan.Child(obs.SpanShard,
			obs.Int(obs.AttrShard, sr.index),
			obs.Int(obs.AttrShardStart, sr.start),
			obs.Int(obs.AttrShardEnd, sr.end),
			obs.Int(obs.AttrHaloRows, sr.start-sr.haloStart))
		finished := false
		for b := range chans[si] {
			for i := range b.events {
				if err := env.replay(&b.events[i]); err != nil {
					sp.End()
					return err
				}
			}
			if b.fin {
				if b.err != nil {
					sp.End()
					return b.err
				}
				if env.m != nil {
					env.m.ShardSweeps.Add(1)
					env.m.HaloPairsDeduped.Add(b.haloDeduped)
				}
				sp.SetAttr(obs.Int64(obs.AttrHaloDeduped, b.haloDeduped))
				finished = true
			}
		}
		sp.End()
		if !finished {
			return fmt.Errorf("core: candidate %q: shard %d of pass %d ended without a final batch",
				env.cand.Name, sr.index, pass)
		}
		// This shard is fully replayed; admit the next worker into the
		// in-flight window.
		startNext()
	}
	teardown()
	return nil
}

// shardWorker sweeps one shard's extent and streams the resulting pair
// events to the coordinator. It performs no ordered bookkeeping of its
// own: pairs already in the pass-start compared snapshot ship as skip
// events, everything else is compared (through the shard's own pair
// worker pool when configured) and shipped with its verdict. Panics in
// comparisons travel inside the verdict (shipPanics) and re-raise at
// their replay position. A hard source error discards buffered
// verdicts and ships only the error — exactly the sequential loop,
// which returns without draining its sweeper on a source error.
func shardWorker(env *shardEnv, pass int, sr shardRange, snapshot map[uint64]struct{}, open func(shardRange) (rowSource, error), out chan<- shardBatch, done <-chan struct{}) {
	send := func(b shardBatch) error {
		select {
		case out <- b:
			return nil
		case <-done:
			return errShardAbandoned
		}
	}
	var pending []pairVerdict
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		b := shardBatch{events: pending}
		pending = nil
		return send(b)
	}

	src, err := open(sr)
	if err != nil {
		_ = send(shardBatch{fin: true, err: err})
		return
	}
	defer src.close()

	ring := newRowRing(env.keep)
	sw := newSweeper(env.opts.pairWorkerCount(),
		func(v *pairVerdict) {
			if v.skip {
				return
			}
			v.odSim, v.descSim, v.hasDesc, v.dup, v.filtered, v.err =
				comparePair(env.t, v.a, v.b, env.useDesc, env.opts, env.cache)
		},
		func(v *pairVerdict) error {
			pending = append(pending, *v)
			if len(pending) >= shardBatchEvents {
				return flush()
			}
			return nil
		})
	sw.shipPanics = true

	var haloDeduped int64
	w := env.w
	i := sr.haloStart - 1
	for {
		row, rerr := src.next()
		if rerr != nil {
			pending = nil
			_ = send(shardBatch{fin: true, err: rerr})
			return
		}
		if row == nil {
			break
		}
		i++
		ring.push(i, row)
		if i < sr.start {
			// Halo row: its pairs are owned by the preceding shard.
			// Count the base-window pairs visible in this shard's read
			// extent so the dedup is observable in the report.
			lo := i - (w - 1)
			if lo < sr.haloStart {
				lo = sr.haloStart
			}
			haloDeduped += int64(i - lo)
			continue
		}
		if i == 0 {
			continue
		}
		lo := i - (w - 1)
		if lo < 0 {
			lo = 0
		}
		if env.cand.AdaptiveKeySim > 0 {
			lo = adaptiveLow(ring, row, i, lo, pass, env.cand)
		}
		for j := lo; j < i; j++ {
			v := pairVerdict{a: ring.at(j), b: row}
			if _, seen := snapshot[packPair(v.a.EID, v.b.EID)]; seen {
				v.skip = true
			}
			if err := sw.addVerdict(v); err != nil {
				return // abandoned mid-flush; coordinator is unwinding
			}
		}
	}
	if err := sw.finish(); err != nil {
		return
	}
	if err := flush(); err != nil {
		return
	}
	_ = send(shardBatch{fin: true, haloDeduped: haloDeduped})
}
