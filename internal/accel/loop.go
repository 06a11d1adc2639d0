package accel

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mealib/internal/descriptor"
	"mealib/internal/noc"
	"mealib/internal/units"
)

// The streamed LOOP executor: LOOPs whose plan expansion would exceed
// planMaxNodes run here, iteration by iteration, without materialising a
// DAG. The body is compiled once per launch (loop-invariant remote traffic
// and a dense per-opcode slot per comp); each iteration accumulates into a
// value-typed cost record in reused per-worker scratch; records merge into
// the launch Report strictly in iteration order. The float accumulation
// sequence is therefore a pure function of the descriptor — every
// iteration sums its costs from zero (comps in pass order, each pass's NoC
// charge after its comps, the dispatch charge last) and the launch adds
// the iteration sums in order, per-op stats in opcode order — so serial
// and parallel runs produce identical reports and identical spaces.

// costs is the value-typed header of a cost record: the scalar Report
// quantities one pass or one loop iteration accumulates.
type costs struct {
	Time         units.Seconds
	Energy       units.Joules
	Comps        int64
	NoCBytes     units.Bytes
	LMSpillBytes units.Bytes
	RemoteBytes  units.Bytes
	ElidedBytes  units.Bytes
}

// costs returns r's scalar accumulators as a record.
func (r *Report) costs() costs {
	return costs{Time: r.Time, Energy: r.Energy, Comps: r.Comps, NoCBytes: r.NoCBytes,
		LMSpillBytes: r.LMSpillBytes, RemoteBytes: r.RemoteBytes, ElidedBytes: r.ElidedBytes}
}

// setCosts stores a record back into r's scalar accumulators.
func (r *Report) setCosts(h costs) {
	r.Time, r.Energy, r.Comps, r.NoCBytes = h.Time, h.Energy, h.Comps, h.NoCBytes
	r.LMSpillBytes, r.RemoteBytes, r.ElidedBytes = h.LMSpillBytes, h.RemoteBytes, h.ElidedBytes
}

// addRecord folds one iteration's record into r, exactly as merging a
// per-iteration sub-report would: header fields, then the per-op stats of
// each slot (ops[i] accumulates into aggs[i], slots ascending by opcode).
func (r *Report) addRecord(h *costs, ops []OpStats, aggs []*OpStats) {
	r.Time += h.Time
	r.Energy += h.Energy
	r.Comps += h.Comps
	r.NoCBytes += h.NoCBytes
	r.LMSpillBytes += h.LMSpillBytes
	r.RemoteBytes += h.RemoteBytes
	r.ElidedBytes += h.ElidedBytes
	for i := range ops {
		st, agg := &ops[i], aggs[i]
		agg.Invocations += st.Invocations
		agg.Time += st.Time
		agg.Energy += st.Energy
		agg.Flops += st.Flops
		agg.Bytes += st.Bytes
	}
}

// bodyComp is one comp of a compiled pass.
type bodyComp struct {
	op     descriptor.OpCode
	params descriptor.Params
	// slot indexes the comp's opcode in the record's per-op stats.
	slot int
	// remote is the comp's traffic to buffers on other stacks, and
	// remoteTime/remoteEnergy its link penalty. The stack map classifies
	// the un-shifted spans, so all three are loop-invariant.
	remote       units.Bytes
	remoteTime   units.Seconds
	remoteEnergy units.Joules
}

// loopBody is a LOOP body compiled for repeated evaluation.
type loopBody struct {
	passes [][]bodyComp
	// slotOps maps slot to opcode, ascending.
	slotOps []descriptor.OpCode
	// maxPass is the longest pass, sizing the work scratch.
	maxPass int
}

// compileBody resolves everything about passes that does not depend on
// the iteration vector.
func (l *Layer) compileBody(passes [][]passInstr) (*loopBody, error) {
	b := &loopBody{passes: make([][]bodyComp, len(passes))}
	for _, pass := range passes {
		b.slotOps = addSlotOps(b.slotOps, pass)
		b.maxPass = max(b.maxPass, len(pass))
	}
	slices.Sort(b.slotOps)
	for k, pass := range passes {
		comps, err := l.compilePass(pass, b.slotOps)
		if err != nil {
			return nil, err
		}
		b.passes[k] = comps
	}
	return b, nil
}

// addSlotOps appends the opcodes of pass that slotOps lacks.
func addSlotOps(slotOps []descriptor.OpCode, pass []passInstr) []descriptor.OpCode {
	for _, pi := range pass {
		if !slices.Contains(slotOps, pi.op) {
			slotOps = append(slotOps, pi.op)
		}
	}
	return slotOps
}

// compilePass compiles the comps of pass; slotOps must list every opcode
// of the pass.
func (l *Layer) compilePass(pass []passInstr, slotOps []descriptor.OpCode) ([]bodyComp, error) {
	if len(pass) == 0 {
		return nil, fmt.Errorf("accel: empty pass")
	}
	comps := make([]bodyComp, 0, len(pass))
	for _, pi := range pass {
		remote, err := l.cfg.remoteBytes(pi.op, pi.params)
		if err != nil {
			return nil, err
		}
		t, e := l.cfg.remotePenalty(remote)
		comps = append(comps, bodyComp{op: pi.op, params: pi.params,
			slot: slices.Index(slotOps, pi.op), remote: remote, remoteTime: t, remoteEnergy: e})
	}
	return comps, nil
}

// chargePass accounts one executed pass datapath: works[:len(pass)] holds
// what each comp did, works[len(pass):2*len(pass)] is scratch. Chained
// intermediates move through tile-local memory over the NoC instead of
// round-tripping through DRAM. Costs accumulate into h and ops (indexed by
// slot).
func (l *Layer) chargePass(pass []bodyComp, works []Work, h *costs, ops []OpStats) error {
	n := len(pass)
	works, adjusted := works[:n], works[n:2*n]
	// Chaining: producer i hands its output to consumer i+1 through tile
	// local memory (paper Figure 12a). Remove the DRAM round trip and charge
	// the NoC instead. The intermediate is distributed across all tiles, so
	// the transfer proceeds over Tiles one-hop links in parallel, and a
	// sizeable fraction never leaves its producing tile at all.
	copy(adjusted, works)
	var nocTime units.Seconds
	var nocEnergy units.Joules
	lmCap := l.cfg.LMBytes * units.Bytes(l.cfg.Tiles)
	for i := 0; i+1 < n; i++ {
		chained := adjusted[i].OutStream
		if adjusted[i+1].InStream < chained {
			chained = adjusted[i+1].InStream
		}
		// Chained data is buffered in the tile local memories; anything
		// beyond their aggregate capacity spills to DRAM after all
		// (store-and-forward in LM-sized chunks would serialise the
		// stages, which the hardware avoids by spilling).
		if chained > lmCap {
			h.LMSpillBytes += chained - lmCap
			chained = lmCap
		}
		adjusted[i].OutStream -= chained
		adjusted[i+1].InStream -= chained
		perLink := chained / units.Bytes(l.cfg.Tiles)
		t, e := l.cfg.Mesh.Transfer(noc.Coord{X: 0, Y: 0}, noc.Coord{X: 1, Y: 0}, perLink)
		nocTime += t
		nocEnergy += e * units.Joules(l.cfg.Tiles) / 2 // ~half stays tile-local
		h.NoCBytes += chained
		// The DRAM store of the producer and load of the consumer both
		// disappear.
		h.ElidedBytes += 2 * chained
	}
	for i := range pass {
		pc := &pass[i]
		c, err := l.cfg.OpCost(pc.op, adjusted[i])
		if err != nil {
			return err
		}
		// Remote-stack buffers stream over the inter-stack links instead of
		// the local TSVs (paper §3.3: data should reside in the LMS).
		if pc.remote > 0 {
			c.Time += pc.remoteTime
			c.Energy += pc.remoteEnergy
			h.RemoteBytes += pc.remote
		}
		st := &ops[pc.slot]
		st.Invocations++
		st.Time += c.Time
		st.Energy += c.Energy
		st.Flops += works[i].Flops
		st.Bytes += works[i].Total()
		h.Time += c.Time
		h.Energy += c.Energy
		h.Comps++
	}
	h.Time += nocTime
	h.Energy += nocEnergy
	return nil
}

// loopWorkers sizes the worker pool for a loop of iters iterations:
// cfg.Workers if set (1 forces serial; values above GOMAXPROCS are
// honoured), else min(GOMAXPROCS, Tiles) — one worker per tile the decode
// unit could dispatch to, never more than the host can run.
func (l *Layer) loopWorkers(iters int64) int {
	w := l.cfg.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
		if w > l.cfg.Tiles {
			w = l.cfg.Tiles
		}
	}
	if int64(w) > iters {
		w = int(iters)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// loopChunk is the number of iterations a worker claims and records at a
// time: enough that claiming and the ordered hand-off are noise next to
// the iterations themselves, few enough that a worker's records stay in
// cache.
const loopChunk = 256

// runLoop iterates the hardware loop nest over its passes, bumping the
// iteration vector the way the decode unit advances buffer addresses.
// Iterations proven independent (disjoint read/write spans — the property
// the compiler guarantees before emitting a LOOP, re-derived here by
// loopIndependence) fan out across a worker pool, mirroring the decode
// unit's round-robin tile dispatch; anything else runs on one worker.
func (l *Layer) runLoop(exec execFunc, counts descriptor.LoopCounts, passes [][]passInstr, rep *Report) error {
	rep.Time += l.cfg.PassConfigLatency * units.Seconds(len(passes))
	body, err := l.compileBody(passes)
	if err != nil {
		return err
	}
	iters := counts.Total()
	workers := l.loopWorkers(iters)
	if workers > 1 && !l.loopParallel(counts, passes, iters) {
		workers = 1
	}
	lr := &loopRun{
		l: l, exec: exec, counts: counts, body: body,
		iters: iters, chunks: (iters + loopChunk - 1) / loopChunk,
		dispatch: l.iterDispatch(), rep: rep,
		aggs: make([]*OpStats, len(body.slotOps)),
	}
	for i, op := range body.slotOps {
		lr.aggs[i] = rep.opStats(op)
	}
	lr.turn.L = &lr.mu
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lr.work()
		}()
	}
	lr.work()
	wg.Wait()
	return lr.err
}

// loopRun is one streamed loop execution: workers claim chunks of
// iterations in increasing order, evaluate them into private records, and
// take turns — chunk by chunk, in iteration order — merging those records
// into the launch report.
type loopRun struct {
	l        *Layer
	exec     execFunc
	counts   descriptor.LoopCounts
	body     *loopBody
	iters    int64
	chunks   int64
	dispatch units.Seconds
	rep      *Report
	// aggs are rep's per-op stats, by slot.
	aggs []*OpStats
	next atomic.Int64 // next chunk to claim

	mu   sync.Mutex
	turn sync.Cond // signalled whenever merged advances
	// merged counts the chunks whose turn has passed; err is the first
	// error in iteration order. Both guarded by mu.
	merged int64
	err    error
}

// chunkRecords is a worker's reused scratch: one cost record per
// iteration of a chunk (a header plus one OpStats per slot) and the pass
// work buffers.
type chunkRecords struct {
	heads []costs
	ops   []OpStats
	works []Work
}

// work claims and processes chunks until none remain or an earlier
// iteration has failed. Claims are monotone, so every chunk below a
// claimed one is claimed too and its turn always comes.
func (r *loopRun) work() {
	slots := len(r.body.slotOps)
	sc := chunkRecords{
		heads: make([]costs, loopChunk),
		ops:   make([]OpStats, loopChunk*slots),
		works: make([]Work, 2*r.body.maxPass),
	}
	for {
		c := r.next.Add(1) - 1
		if c >= r.chunks {
			return
		}
		n, err := r.fill(c, &sc)
		r.mu.Lock()
		for r.merged != c {
			r.turn.Wait()
		}
		if r.err == nil {
			for k := 0; k < n; k++ {
				r.rep.addRecord(&sc.heads[k], sc.ops[k*slots:(k+1)*slots], r.aggs)
			}
			r.err = err
		}
		r.merged++
		failed := r.err != nil
		r.turn.Broadcast()
		r.mu.Unlock()
		if failed {
			return
		}
	}
}

// fill evaluates the iterations of chunk c into sc, returning how many
// completed and the error that stopped the chunk, if any.
func (r *loopRun) fill(c int64, sc *chunkRecords) (int, error) {
	lo := c * loopChunk
	n := int(min(loopChunk, r.iters-lo))
	slots := len(r.body.slotOps)
	it := iterVecAt(r.counts, lo)
	for k := 0; k < n; k++ {
		if k > 0 {
			it.advance(r.counts)
		}
		h := &sc.heads[k]
		*h = costs{}
		ops := sc.ops[k*slots : (k+1)*slots]
		clear(ops)
		for _, pass := range r.body.passes {
			for i := range pass {
				w, err := r.exec(pass[i].op, pass[i].params, it)
				if err != nil {
					return k, err
				}
				sc.works[i] = w
			}
			if err := r.l.chargePass(pass, sc.works, h, ops); err != nil {
				return k, err
			}
		}
		h.Time += r.dispatch
	}
	return n, nil
}

// loopParallel runs the independence analysis for a loop about to fan
// out and counts its verdict.
func (l *Layer) loopParallel(counts descriptor.LoopCounts, passes [][]passInstr, iters int64) bool {
	v := loopIndependence(counts, passes, iters)
	l.met.loopVerdicts[v].Add(1)
	return v == indepParallel
}
