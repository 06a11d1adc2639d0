package main

// radar: repeated frames of the paper's two applications (§5.5, Fig. 12-13).
// A frame uploads a fresh datacube and raw image, runs STAP Doppler →
// weights → inner products at stap.Small() and SAR image formation at
// sar.Square(512), and reads every result back. The STAP inner-product LOOP
// (131072 iterations) is over the planner's node cap, so it takes the
// streamed executor; the SAR row loop takes the wavefront scheduler with
// RESMP→FFT chaining. Every call plans a fresh descriptor, and the weight
// solve runs host kernels. No multistack, no wire.

import (
	"fmt"

	"mealib/internal/apps/sar"
	"mealib/internal/apps/stap"
	"mealib/internal/mealibrt"
)

// radarInputs is the size of the rotating input set: consecutive frames
// carry different data, so a stale output cannot pass its check.
const radarInputs = 2

type radarOut struct {
	doppler, weights, prods, image []complex64
}

type radar struct {
	seed int64
	rt   *mealibrt.Runtime
	stap *stap.Pipeline
	sar  *sar.Pipeline
	ref  [radarInputs]radarOut
}

func runRadar(cfg runCfg) (*outcome, error) {
	return runSerial(cfg, "radar", radarTail, newRadar)
}

// radarSeeds derives input k's datacube and raw-image seeds.
func radarSeeds(seed int64, k int) (cube, raw int64) {
	base := seed*2*radarInputs + int64(2*k)
	return base, base + 1
}

// newRadarSystem allocates the runtime and both pipelines.
func newRadarSystem(workers int) (*mealibrt.Runtime, *stap.Pipeline, *sar.Pipeline, error) {
	cfg := mealibrt.DefaultConfig()
	cfg.Workers = workers
	rt, err := mealibrt.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	sp, err := stap.NewPipeline(stap.Small(), rt)
	if err != nil {
		return nil, nil, nil, err
	}
	ap, err := sar.NewPipeline(sar.Square(512), rt)
	if err != nil {
		return nil, nil, nil, err
	}
	return rt, sp, ap, nil
}

// newRadar builds the measured system and the reference outputs, which come
// from the same frames on a serial (Workers=1) runtime.
func newRadar(seed int64) (serialWorkload, error) {
	_, rsp, rap, err := newRadarSystem(1)
	if err != nil {
		return nil, err
	}
	ref := &radar{seed: seed, stap: rsp, sar: rap}
	w := &radar{seed: seed}
	for k := 0; k < radarInputs; k++ {
		if _, err := ref.frame(nil, int64(k)); err != nil {
			return nil, fmt.Errorf("serial reference: %w", err)
		}
		if w.ref[k], err = ref.read(nil, int64(k)); err != nil {
			return nil, err
		}
	}
	if w.rt, w.stap, w.sar, err = newRadarSystem(0); err != nil {
		return nil, err
	}
	return w, nil
}

// frame uploads input id%radarInputs and runs both applications.
func (r *radar) frame(tk *track, id int64) ([]*mealibrt.Invocation, error) {
	cube, raw := radarSeeds(r.seed, int(uint64(id)%radarInputs))
	if err := tk.call("apps", "apps.stap.load", id, func() error { return r.stap.LoadDatacube(cube) }); err != nil {
		return nil, err
	}
	if err := tk.call("apps", "apps.sar.load", id, func() error { return r.sar.LoadRaw(raw) }); err != nil {
		return nil, err
	}
	dop, err := callInv(tk, "apps.stap.doppler", id, r.stap.DopplerProcess)
	if err != nil {
		return nil, err
	}
	if err := tk.call("apps", "apps.stap.solve", id, r.stap.SolveWeights); err != nil {
		return nil, err
	}
	inner, err := callInv(tk, "apps.stap.inner", id, r.stap.InnerProducts)
	if err != nil {
		return nil, err
	}
	img, err := callInv(tk, "apps.sar.form", id, r.sar.FormImageChained)
	if err != nil {
		return nil, err
	}
	return []*mealibrt.Invocation{dop, inner, img}, nil
}

// callInv records an apps call that launches one descriptor.
func callInv(tk *track, name string, id int64, f func() (*mealibrt.Invocation, error)) (*mealibrt.Invocation, error) {
	var inv *mealibrt.Invocation
	err := tk.call("apps", name, id, func() (err error) { inv, err = f(); return err })
	return inv, err
}

// read loads every output of the frame. The apps accessors hand straight
// through to mealibrt buffer loads.
func (r *radar) read(tk *track, id int64) (radarOut, error) {
	var o radarOut
	var err error
	load := func(dst *[]complex64, f func() ([]complex64, error)) {
		if err == nil {
			err = tk.call("mealibrt", "mealibrt.load", id, func() (e error) { *dst, e = f(); return e })
		}
	}
	load(&o.doppler, r.stap.Doppler)
	load(&o.weights, r.stap.Weights)
	load(&o.prods, r.stap.Prods)
	load(&o.image, r.sar.Image)
	return o, err
}

func (r *radar) unit(tk *track, id int64) (ledger, error) {
	tk.begin("bench", "radar.frame", id)
	defer tk.end()
	before := r.rt.Stats()
	invs, err := r.frame(tk, id)
	if err != nil {
		return nil, err
	}
	after := r.rt.Stats()
	got, err := r.read(tk, id)
	if err != nil {
		return nil, err
	}
	want := &r.ref[uint64(id)%radarInputs]
	err = tk.call("bench", "bench.check", id, func() error {
		for _, c := range []struct {
			name      string
			got, want []complex64
		}{{"doppler", got.doppler, want.doppler}, {"weights", got.weights, want.weights},
			{"prods", got.prods, want.prods}, {"image", got.image, want.image}} {
			if i := diffComplex64(c.got, c.want); i >= 0 {
				return fmt.Errorf("%s element %d: %w", c.name, i, errMismatch)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return invocationLedger(invs, before, after)
}

// invocationLedger accounts one unit's launches. The totals come from the
// invocations the program returned; the parts come from the runtime's own
// Stats counters around the unit. Both are float sums over the same
// launches, so they must agree to rounding, and every part must be present.
func invocationLedger(invs []*mealibrt.Invocation, before, after mealibrt.Stats) (ledger, error) {
	l := ledger{}
	var total, totalE float64
	for _, inv := range invs {
		total += float64(inv.TotalTime())
		totalE += float64(inv.TotalEnergy())
		rep := inv.Report
		l["accel.cu_model_us"] += float64(rep.FetchDecodeTime) * 1e6
		var bytes float64
		for op, st := range rep.PerOp {
			bytes += float64(st.Bytes)
			if name := "accel.op." + op.String() + "_model_us"; isMetric(name) {
				l[name] += float64(st.Time) * 1e6
			}
		}
		l["accel.comps"] += float64(rep.Comps)
		l["accel.dram_mb"] += (bytes - float64(rep.ElidedBytes)) / 1e6
		l["accel.elided_mb"] += float64(rep.ElidedBytes) / 1e6
		l["accel.noc_mb"] += float64(rep.NoCBytes) / 1e6
		l["accel.lm_spill_mb"] += float64(rep.LMSpillBytes) / 1e6
		l["accel.ooc_chunks"] += float64(rep.OOCChunks)
		l["accel.staged_mb"] += float64(rep.StagedBytes) / 1e6
	}
	parts := []struct {
		name string
		v    float64
	}{
		{"mealibrt.overhead_model_us", float64(after.OverheadTime - before.OverheadTime)},
		{"accel.exec_model_us", float64(after.AccelTime - before.AccelTime)},
		{"mealibrt.overhead_energy_uj", float64(after.OverheadEnergy - before.OverheadEnergy)},
		{"accel.energy_uj", float64(after.AccelEnergy - before.AccelEnergy)},
		{"mealibrt.host_idle_energy_uj", float64(after.HostIdleEnergy - before.HostIdleEnergy)},
	}
	for _, p := range parts {
		l[p.name] = p.v * 1e6
	}
	scaleT := float64(after.OverheadTime + after.AccelTime)
	if err := conserve("time", total, scaleT, parts[0].v, parts[1].v); err != nil {
		return nil, err
	}
	scaleE := float64(after.OverheadEnergy + after.AccelEnergy + after.HostIdleEnergy)
	if err := conserve("energy", totalE, scaleE, parts[2].v, parts[3].v, parts[4].v); err != nil {
		return nil, err
	}
	l["mealibrt.launches"] = float64(after.Invocations - before.Invocations)
	if int(l["mealibrt.launches"]) != len(invs) {
		return nil, fmt.Errorf("%d launches counted, %d invocations returned", int(l["mealibrt.launches"]), len(invs))
	}
	l["model_time_us"] = total * 1e6
	l["model_energy_uj"] = totalE * 1e6
	return l, nil
}

func isMetric(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

func (r *radar) setupMetrics() map[string]float64 { return nil }

// close has nothing to release: the runtime holds no goroutines or files.
func (r *radar) close() error { return nil }
