package main

// ooc: repeated passes of an AXPY whose operands are four times the stack's
// data space (2M elements per vector against 4 MiB), so both vectors are
// host-backed and every launch is chunked through the 512 KiB staging
// region with prefetch on, the default. It is the only workload on the
// staging and chunking path (accel.PlanOOC, mealibrt's out-of-core driver)
// and on the vm host-backed window.

import (
	"context"
	"fmt"
	"math/rand"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/mealibrt"
	"mealib/internal/units"
)

const (
	oocElems     = 1 << 21
	oocDataSpace = 4 * units.MiB
	oocStaging   = 512 * units.KiB
	oocAlpha     = float32(1.5)
	oocInputs    = 2 // rotating input sets
)

type oocWL struct {
	rt     *mealibrt.Runtime
	x, y   *mealibrt.Buffer
	plan   *mealibrt.Plan
	xs, ys [oocInputs][]float32
	ref    [oocInputs][]float32
}

func runOOC(cfg runCfg) (*outcome, error) {
	return runSerial(cfg, "ooc", oocTail, newOOC)
}

// randVec draws n values in [-4, 4) from rng.
func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*8 - 4
	}
	return v
}

func newOOC(seed int64) (serialWorkload, error) {
	w := &oocWL{}
	rng := rand.New(rand.NewSource(seed))
	for k := range w.xs {
		w.xs[k] = randVec(rng, oocElems)
		w.ys[k] = randVec(rng, oocElems)
		w.ref[k] = append([]float32(nil), w.ys[k]...)
		if err := kernels.Saxpy(oocElems, oocAlpha, w.xs[k], 1, w.ref[k], 1); err != nil {
			return nil, err
		}
	}
	cfg := mealibrt.DefaultConfig()
	cfg.Driver.DataSize = oocDataSpace
	cfg.Driver.StagingSize = oocStaging
	var err error
	if w.rt, err = mealibrt.New(cfg); err != nil {
		return nil, err
	}
	if w.x, err = w.rt.MemAlloc(4 * oocElems); err != nil {
		return nil, err
	}
	if w.y, err = w.rt.MemAlloc(4 * oocElems); err != nil {
		return nil, err
	}
	if w.x.Resident() || w.y.Resident() {
		return nil, fmt.Errorf("ooc: oversized operands are resident; the staging path would not run")
	}
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: oocElems, Alpha: oocAlpha, X: w.x.PA(), Y: w.y.PA(), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		return nil, err
	}
	d.AddEndPass()
	if w.plan, err = w.rt.AccPlanDescriptor(d); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *oocWL) setupMetrics() map[string]float64 { return nil }

func (w *oocWL) close() error { return w.plan.Destroy() }

func (w *oocWL) unit(tk *track, id int64) (ledger, error) {
	tk.begin("bench", "ooc.pass", id)
	defer tk.end()
	k := uint64(id) % oocInputs
	for _, s := range []struct {
		b *mealibrt.Buffer
		v []float32
	}{{w.x, w.xs[k]}, {w.y, w.ys[k]}} {
		if err := tk.call("mealibrt", "mealibrt.store", id, func() error { return s.b.StoreFloat32s(0, s.v) }); err != nil {
			return nil, err
		}
	}
	before := w.rt.Stats()
	var inv *mealibrt.Invocation
	err := tk.call("mealibrt", "mealibrt.execute", id, func() (err error) {
		inv, err = w.plan.Execute(context.Background())
		return err
	})
	if err != nil {
		return nil, err
	}
	after := w.rt.Stats()
	var got []float32
	if err := tk.call("mealibrt", "mealibrt.load", id, func() (err error) { got, err = w.y.LoadFloat32s(0, oocElems); return err }); err != nil {
		return nil, err
	}
	err = tk.call("bench", "bench.check", id, func() error {
		if i := diffFloat32(got, w.ref[k]); i >= 0 {
			return fmt.Errorf("y element %d: %w", i, errMismatch)
		}
		if inv.Report.OOCChunks < 2 {
			return fmt.Errorf("%d chunks: the launch was not staged", inv.Report.OOCChunks)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return invocationLedger([]*mealibrt.Invocation{inv}, before, after)
}
