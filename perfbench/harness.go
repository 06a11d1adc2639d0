package main

// The closed-loop driver shared by the workloads whose units of work run one
// after another on one goroutine: radar, graph and ooc.

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// ledger is one unit's model accounting, keyed by metric name in the
// metric's own unit: "model_time_us", "model_energy_uj" and the model
// per-layer metrics.
type ledger map[string]float64

// serialWorkload is a set-up workload whose units run one at a time.
type serialWorkload interface {
	// unit runs unit id, checks its outputs against the reference, and
	// returns its model accounting. tk is nil in untraced phases.
	unit(tk *track, id int64) (ledger, error)
	// setupMetrics returns per-layer metrics measured during set-up.
	setupMetrics() map[string]float64
	close() error
}

// phase is one measured stretch of units.
type phase struct {
	attempted int
	errs      []error // one per failed unit
	units     int     // units that completed and passed their checks
	elapsed   time.Duration
	lat       []time.Duration
	// busy holds each passed unit's [start, end) since the phase began.
	busy [][2]time.Duration
	vals map[string][]float64 // ledger entries, one per unit
	next int64                // the id after the last unit
}

func (p *phase) throughput() float64 { return float64(p.units) / p.elapsed.Seconds() }

// throughputWindows is how many windows throughput_per_s is the median of.
const throughputWindows = 10

// windowThroughput cuts the phase into equal windows and returns the median
// of their rates, which a short stall of the machine moves less than the
// whole-phase rate. A unit counts in each window by the share of its
// duration that falls inside.
func (p *phase) windowThroughput() float64 {
	w := p.elapsed / throughputWindows
	if w <= 0 {
		return p.throughput()
	}
	rates := make([]float64, throughputWindows)
	for _, b := range p.busy {
		d := float64(b[1] - b[0])
		for i := range rates {
			lo, hi := max(b[0], time.Duration(i)*w), min(b[1], time.Duration(i+1)*w)
			if hi > lo && d > 0 {
				rates[i] += float64(hi-lo) / d
			}
		}
	}
	for i := range rates {
		rates[i] /= w.Seconds()
	}
	sort.Float64s(rates)
	return (rates[throughputWindows/2-1] + rates[throughputWindows/2]) / 2
}

// med returns the per-unit median of a ledger entry. Model entries repeat
// exactly from unit to unit on the deterministic workloads, and a median
// keeps them exact whatever the number of units.
func (p *phase) med(name string) float64 {
	v := p.vals[name]
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

func newPhase() *phase { return &phase{vals: map[string][]float64{}} }

// finish books one unit that ran over [t0, t1) of the phase.
func (p *phase) finish(l ledger, t0, t1 time.Duration, err error) {
	p.attempted++
	if err != nil {
		p.errs = append(p.errs, err)
		return
	}
	p.units++
	p.lat = append(p.lat, t1-t0)
	p.busy = append(p.busy, [2]time.Duration{t0, t1})
	for k, v := range l {
		p.vals[k] = append(p.vals[k], v)
	}
}

// merge folds q into p; the phases ran at the same time.
func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.errs = append(p.errs, q.errs...)
	p.units += q.units
	p.lat = append(p.lat, q.lat...)
	p.busy = append(p.busy, q.busy...)
	for k, v := range q.vals {
		p.vals[k] = append(p.vals[k], v...)
	}
}

// book moves the phase's failure tally into the outcome and returns how
// many of the failures were the service refusing a request.
func (p *phase) book(out *outcome) int {
	out.attempted += p.attempted
	n := 0
	for _, err := range p.errs {
		out.fail(err)
		if refused(err) {
			n++
		}
	}
	return n
}

// measureSerial runs units back to back for d.
func measureSerial(w serialWorkload, d time.Duration, tk *track, id int64) *phase {
	p := newPhase()
	start := time.Now()
	for ; time.Since(start) < d; id++ {
		t0 := time.Since(start)
		l, err := w.unit(tk, id)
		if err != nil {
			err = fmt.Errorf("unit %d: %w", id, err)
		}
		p.finish(l, t0, time.Since(start), err)
	}
	p.elapsed = time.Since(start)
	p.next = id
	return p
}

// setUp builds the workload and keeps the last build; each build ends
// with one checked warm-up unit, so lazy initialisation is paid before
// measuring and shows in setup_s. An untraced run builds at least
// setupReps times and for at least setupBudget, so that cheap set-ups
// get enough samples for a steady median.
func setUp[W closer](trace bool, build func() (W, error)) (W, []time.Duration, error) {
	var took []time.Duration
	start := time.Now()
	for {
		t0 := time.Now()
		nw, err := build()
		if err != nil {
			return nw, nil, err
		}
		took = append(took, time.Since(t0))
		n := len(took)
		if trace || n >= setupMaxReps || n >= setupReps && time.Since(start) >= setupBudget {
			return nw, took, nil
		}
		if err := nw.close(); err != nil {
			return nw, nil, err
		}
		runtime.GC()
	}
}

// closer is a set-up workload.
type closer interface{ close() error }

// runSerial is the whole run of a serial workload: end-to-end metrics
// untraced, or an untraced half and a traced half for the per-layer split.
func runSerial(cfg runCfg, name string, tail float64, build func(int64) (serialWorkload, error)) (*outcome, error) {
	w, took, err := setUp(cfg.trace, func() (serialWorkload, error) {
		w, err := build(cfg.seed)
		if err != nil {
			return nil, err
		}
		if _, err := w.unit(nil, -1); err != nil {
			_ = w.close() // the warm-up error is the one to report
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return w, nil
	})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	if !cfg.trace {
		mem := liveHeapMB()
		p := measureSerial(w, cfg.seconds, nil, 0)
		p.book(out)
		e2e(out, p, took, tail, mem)
		return out, w.close()
	}
	plain := measureSerial(w, cfg.seconds/2, nil, 0)
	tr := newTracer()
	traced := measureSerial(w, cfg.seconds/2, tr.track(name), plain.next)
	plain.book(out)
	traced.book(out)
	for k, v := range w.setupMetrics() {
		out.values[k] = v
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	return out, perLayerMetrics(out, tr, traced, plain)
}

// e2e fills the end-to-end metrics of an untraced phase; tail is the
// workload's tail percentile and mem the live heap read right after set-up.
func e2e(out *outcome, p *phase, setup []time.Duration, tail, mem float64) {
	out.values["model_time_us"] = p.med("model_time_us")
	out.values["model_energy_uj"] = p.med("model_energy_uj")
	out.values["throughput_per_s"] = p.windowThroughput()
	out.values["latency_p50_us"] = us(quantile(p.lat, 0.50))
	out.values["latency_tail_us"] = us(quantile(p.lat, tail))
	out.values["setup_s"] = median(setup).Seconds()
	for _, k := range []string{"model_time_us", "model_energy_uj", "throughput_per_s", "latency_p50_us", "latency_tail_us"} {
		out.samples[k] = p.units
	}
	out.samples["setup_s"] = len(setup)
	out.values["host_mem_mb"] = mem
}

// perLayerMetrics folds a traced phase into the per-layer metrics: the
// median duration of each named call, each layer's self time per unit, the
// per-unit median of each model metric and count in the units' ledgers,
// and the tracing overhead against the untraced phase.
func perLayerMetrics(out *outcome, tr *tracer, traced, plain *phase) error {
	ls, err := tr.split()
	if err != nil {
		return err
	}
	for _, d := range perLayer {
		if _, ok := traced.vals[d.name]; ok && d.clock != "wall" {
			out.values[d.name] = traced.med(d.name)
			continue
		}
		if layer, ok := strings.CutSuffix(d.name, ".self_us"); ok {
			if ls.units > 0 {
				out.values[d.name] = us(ls.self[layer]) / float64(ls.units)
			}
			continue
		}
		if call, ok := strings.CutSuffix(d.name, "_us"); ok {
			if ds := ls.callDur[call]; len(ds) > 0 {
				out.values[d.name] = us(median(ds))
				out.samples[d.name] = len(ds)
			}
		}
	}
	out.values["trace.overhead_per_s"] = traced.throughput() - plain.throughput()
	out.trace, err = tr.chromeTrace()
	return err
}
