package main

// serve: an in-process mealibd on a unix socket, configured as cmd/mealibd
// configures it by default (tracer on, wave pipelining on, default
// batching). Each connection is one tenant; a request stores x and y,
// executes the tenant's installed 4096-element AXPY plan and loads y back.
// It is the only workload on the wire, sessions, admission, batching, and
// host stores and loads racing launches in flight; the kernels do almost
// nothing. The end-to-end run is a closed loop; the traced run adds an open
// loop at a fixed offered rate.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/mealibd"
	"mealib/internal/mealibd/client"
	"mealib/internal/mealibrt"
	"mealib/internal/phys"
	"mealib/internal/telemetry"
)

const (
	serveN      = 4096
	serveAlpha  = float32(0.75)
	serveInputs = 4 // rotating input sets
	// serveConns caps the client connections; a run uses at most nproc.
	serveConns = 2
	// serveOpenRate is the open loop's offered load in requests per second:
	// under half the closed-loop capacity two connections reached on a
	// 2-vCPU Xeon (4300-4500 requests/s over seeds 21-25). It is a
	// constant so that a later change faces the same offered load.
	serveOpenRate = 2000
	// serveInproc is how many in-process executions time the service
	// overhead's baseline.
	serveInproc = 2000
)

type serveConn struct {
	cl   *client.Client
	x, y *client.Buffer
	plan *client.Plan
}

type serveWL struct {
	rt    *mealibrt.Runtime
	srv   *mealibd.Server
	done  chan error
	dir   string
	conns []*serveConn
	dial  []time.Duration
	xs    [serveInputs][]float32
	ys    [serveInputs][]float32
	ref   [serveInputs][]float32
}

// serveInputSets draws the rotating inputs and their host references.
func serveInputSets(seed int64) (xs, ys, ref [serveInputs][]float32, err error) {
	rng := rand.New(rand.NewSource(seed))
	for k := range xs {
		xs[k] = randVec(rng, serveN)
		ys[k] = randVec(rng, serveN)
		ref[k] = append([]float32(nil), ys[k]...)
		if err = kernels.Saxpy(serveN, serveAlpha, xs[k], 1, ref[k], 1); err != nil {
			return
		}
	}
	return
}

// serveRuntimeConfig is cmd/mealibd's default runtime configuration.
func serveRuntimeConfig() *mealibrt.Config {
	cfg := mealibrt.DefaultConfig()
	cfg.Tracer = telemetry.New()
	cfg.WavePipeline = true
	return cfg
}

// axpyDesc is the request's descriptor over x and y.
func axpyDesc(x, y phys.Addr) (*descriptor.Descriptor, error) {
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: serveN, Alpha: serveAlpha, X: x, Y: y, IncX: 1, IncY: 1,
	}.Params()); err != nil {
		return nil, err
	}
	d.AddEndPass()
	return d, nil
}

// newServe starts the server, dials the tenants, installs their plans and
// runs one checked request per connection.
func newServe(seed int64) (w *serveWL, err error) {
	w = &serveWL{}
	if w.xs, w.ys, w.ref, err = serveInputSets(seed); err != nil {
		return nil, err
	}
	// A relative socket path keeps within the unix socket name limit
	// wherever the checkout lives.
	if w.dir, err = os.MkdirTemp(".", ".perfbench-sock-"); err != nil {
		return nil, err
	}
	if w.rt, err = mealibrt.New(serveRuntimeConfig()); err != nil {
		os.RemoveAll(w.dir)
		return nil, err
	}
	if w.srv, err = mealibd.New(mealibd.Config{Runtime: w.rt}); err != nil {
		os.RemoveAll(w.dir)
		return nil, err
	}
	addr := filepath.Join(w.dir, "s")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		os.RemoveAll(w.dir)
		return nil, err
	}
	w.done = make(chan error, 1)
	go func() { w.done <- w.srv.Serve(ln) }()
	defer func() {
		if err != nil {
			_ = w.close() // the set-up error is the one to report
		}
	}()
	for i := 0; i < min(serveConns, runtime.NumCPU()); i++ {
		c := &serveConn{}
		t0 := time.Now()
		if c.cl, err = client.Dial(client.Config{Network: "unix", Addr: addr, Tenant: fmt.Sprintf("tenant%d", i)}); err != nil {
			return nil, err
		}
		w.dial = append(w.dial, time.Since(t0))
		w.conns = append(w.conns, c)
		if c.x, err = c.cl.Alloc(4 * serveN); err != nil {
			return nil, err
		}
		if c.y, err = c.cl.Alloc(4 * serveN); err != nil {
			return nil, err
		}
		d, err := axpyDesc(phys.Addr(c.x.PA()), phys.Addr(c.y.PA()))
		if err != nil {
			return nil, err
		}
		if c.plan, err = c.cl.Plan(d); err != nil {
			return nil, err
		}
		if _, err = w.request(c, nil, -1, true); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

// close ends the sessions, shuts the server down and waits for it.
func (w *serveWL) close() error {
	defer os.RemoveAll(w.dir)
	for _, c := range w.conns {
		_ = c.cl.Close() // the server closes every session on shutdown anyway
	}
	if err := w.srv.Close(); err != nil {
		return err
	}
	return <-w.done
}

// request runs one request on connection c. With detail unset the ledger
// holds only the two model totals.
func (w *serveWL) request(c *serveConn, tk *track, id int64, detail bool) (ledger, error) {
	tk.begin("bench", "serve.request", id)
	defer tk.end()
	k := uint64(id) % serveInputs
	if err := tk.call("mealibd", "mealibd.store", id, func() error { return c.x.StoreFloat32s(0, w.xs[k]) }); err != nil {
		return nil, err
	}
	if err := tk.call("mealibd", "mealibd.store", id, func() error { return c.y.StoreFloat32s(0, w.ys[k]) }); err != nil {
		return nil, err
	}
	var rep *mealibd.Report
	err := tk.call("mealibd", "mealibd.execute", id, func() error {
		t, err := c.plan.Submit()
		if err != nil {
			return err
		}
		rep, err = t.Wait()
		return err
	})
	if err != nil {
		return nil, err
	}
	var got []float32
	if err := tk.call("mealibd", "mealibd.load", id, func() (err error) { got, err = c.y.LoadFloat32s(0, serveN); return err }); err != nil {
		return nil, err
	}
	err = tk.call("bench", "bench.check", id, func() error {
		if i := diffFloat32(got, w.ref[k]); i >= 0 {
			return fmt.Errorf("y element %d: %w", i, errMismatch)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A batched launch reports once for all its descriptors: share it.
	b := float64(max(rep.Batched, 1))
	l := ledger{
		"model_time_us":   float64(rep.OverheadTime+rep.Time) / b * 1e6,
		"model_energy_uj": float64(rep.Energy+rep.OverheadEnergy+rep.HostIdleEnergy) / b * 1e6,
	}
	if detail {
		l["mealibrt.overhead_model_us"] = float64(rep.OverheadTime) / b * 1e6
		l["accel.exec_model_us"] = float64(rep.Time) / b * 1e6
		l["accel.energy_uj"] = float64(rep.Energy) / b * 1e6
		l["mealibrt.overhead_energy_uj"] = float64(rep.OverheadEnergy) / b * 1e6
		l["mealibrt.host_idle_energy_uj"] = float64(rep.HostIdleEnergy) / b * 1e6
		l["accel.comps"] = float64(rep.Comps) / b
		l["accel.noc_mb"] = float64(rep.BytesMoved) / b / 1e6
		l["accel.elided_mb"] = float64(rep.BytesElided) / b / 1e6
		l["mealibd.batched_mean"] = float64(rep.Batched)
	}
	return l, nil
}

// refused reports whether err is the service turning a request away.
func refused(err error) bool {
	return errors.Is(err, mealibrt.ErrQueueFull) || errors.Is(err, mealibrt.ErrQuotaExceeded) ||
		errors.Is(err, mealibrt.ErrOverCapacity)
}

// closedLoop runs every connection back to back for d. Request ids
// interleave over the connections from base.
func (w *serveWL) closedLoop(d time.Duration, tr *tracer, base int64) *phase {
	parts := make([]*phase, len(w.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range w.conns {
		parts[i] = newPhase()
		wg.Add(1)
		go func(i int, c *serveConn) {
			defer wg.Done()
			tk := tr.track(fmt.Sprintf("conn%d", i))
			for j := int64(0); time.Since(start) < d; j++ {
				t0 := time.Since(start)
				l, err := w.request(c, tk, base+j*int64(len(w.conns))+int64(i), tr != nil)
				parts[i].finish(l, t0, time.Since(start), err)
			}
		}(i, c)
	}
	wg.Wait()
	p := newPhase()
	p.elapsed = time.Since(start)
	for _, q := range parts {
		p.merge(q)
	}
	p.next = base + int64(p.attempted+1)*int64(len(w.conns))
	return p
}

// openLoop offers serveOpenRate requests per second for d, round robin over
// the connections, whether or not earlier ones have finished. Latency runs
// from each request's due time; lag is how late the generator issued it.
func (w *serveWL) openLoop(d time.Duration, base int64) (p *phase, lag []time.Duration) {
	type job struct {
		id  int64
		due time.Time
	}
	total := int(serveOpenRate * d.Seconds())
	start := time.Now()
	queues := make([]chan job, len(w.conns))
	parts := make([]*phase, len(w.conns))
	var wg sync.WaitGroup
	for i, c := range w.conns {
		// Sized to every request this connection can be offered, so the
		// generator never blocks on a slow connection.
		queues[i] = make(chan job, total/len(w.conns)+1)
		parts[i] = newPhase()
		wg.Add(1)
		go func(i int, c *serveConn) {
			defer wg.Done()
			for j := range queues[i] {
				l, err := w.request(c, nil, j.id, false)
				// Open-loop latency runs from the due time.
				parts[i].finish(l, j.due.Sub(start), time.Since(start), err)
			}
		}(i, c)
	}
	interval := time.Duration(float64(time.Second) / serveOpenRate)
	lag = make([]time.Duration, 0, total)
	for n := 0; n < total; n++ {
		due := start.Add(time.Duration(n) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag = append(lag, time.Since(due))
		queues[n%len(w.conns)] <- job{id: base + int64(n), due: due}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	p = newPhase()
	p.elapsed = time.Since(start)
	for _, q := range parts {
		p.merge(q)
	}
	return p, lag
}

// inprocExecute times the same AXPY descriptor run in-process through
// mealibrt on a runtime configured like the server's: the baseline of the
// service overhead.
func inprocExecute(w *serveWL) (time.Duration, error) {
	rt, err := mealibrt.New(serveRuntimeConfig())
	if err != nil {
		return 0, err
	}
	x, err := rt.MemAlloc(4 * serveN)
	if err != nil {
		return 0, err
	}
	y, err := rt.MemAlloc(4 * serveN)
	if err != nil {
		return 0, err
	}
	if err := x.StoreFloat32s(0, w.xs[0]); err != nil {
		return 0, err
	}
	if err := y.StoreFloat32s(0, w.ys[0]); err != nil {
		return 0, err
	}
	d, err := axpyDesc(x.PA(), y.PA())
	if err != nil {
		return 0, err
	}
	p, err := rt.AccPlanDescriptor(d)
	if err != nil {
		return 0, err
	}
	defer func() { _ = p.Destroy() }()
	ds := make([]time.Duration, serveInproc)
	for i := range ds {
		t0 := time.Now()
		if _, err := p.Execute(context.Background()); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0)
	}
	return median(ds), nil
}

func runServe(cfg runCfg) (*outcome, error) {
	w, took, err := setUp(cfg.trace, func() (*serveWL, error) { return newServe(cfg.seed) })
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	if !cfg.trace {
		mem := liveHeapMB()
		p := w.closedLoop(cfg.seconds, nil, 0)
		p.book(out)
		e2e(out, p, took, serveTail, mem)
		return out, w.close()
	}

	third := cfg.seconds / 3
	plain := w.closedLoop(third, nil, 0)
	tr := newTracer()
	traced := w.closedLoop(third, tr, plain.next)
	open, lag := w.openLoop(third, traced.next)
	inproc, err := inprocExecute(w)
	if err != nil {
		_ = w.close() // the measurement error is the one to report
		return nil, err
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	ref := 0
	for _, p := range []*phase{plain, traced, open} {
		ref += p.book(out)
	}
	if err := perLayerMetrics(out, tr, traced, plain); err != nil {
		return nil, err
	}
	// Batching is reported as a mean, not the per-unit median.
	var sum float64
	for _, b := range traced.vals["mealibd.batched_mean"] {
		sum += b
	}
	if n := len(traced.vals["mealibd.batched_mean"]); n > 0 {
		out.values["mealibd.batched_mean"] = sum / float64(n)
	}
	out.values["mealibd.dial_us"] = us(median(w.dial))
	out.values["mealibrt.execute_us"] = us(inproc)
	out.values["mealibd.service_overhead_us"] = out.values["mealibd.execute_us"] - us(inproc)
	out.values["mealibd.refused"] = float64(ref)
	out.values["serve.open_latency_p50_us"] = us(quantile(open.lat, 0.50))
	out.values["serve.open_latency_p99_us"] = us(quantile(open.lat, 0.99))
	out.values["serve.gen_lag_p99_us"] = us(quantile(lag, 0.99))
	out.samples["serve.open_latency_p99_us"] = open.units
	out.samples["serve.gen_lag_p99_us"] = len(lag)
	return out, nil
}
