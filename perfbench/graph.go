package main

// graph: one solve is PageRank for a fixed number of iterations, then BFS to
// its fixed point under a round cap, both as iterated SpMV sharded over four
// stacks of a random geometric graph. The benchmark drives multistack
// Shard → BuildPlans → SetX → Step → X itself. It is the only workload on
// sparse, multistack and the noc inter-stack links, and its many small
// launches (one per stack per step) make per-launch overhead dominate.
// No LOOPs, no fusion, no wire.

import (
	"context"
	"fmt"
	"time"

	"mealib/internal/apps/graph"
	"mealib/internal/kernels"
	"mealib/internal/mealibrt"
	"mealib/internal/multistack"
	"mealib/internal/sparse"
	"mealib/internal/units"
)

const (
	graphN        = 1 << 17
	graphDegree   = 13
	graphStacks   = 4
	graphAlpha    = float32(0.85)
	graphPRIters  = 16
	graphBFSRound = 64 // BFS round cap
	graphData     = 256 * units.MiB
)

type graphWL struct {
	sys      *multistack.System
	pr, bfs  *multistack.Sharded
	n        int
	source   int
	refPR    []float32
	refBFS   []float32
	refIters int
	setup    map[string]float64
}

func runGraph(cfg runCfg) (*outcome, error) {
	return runSerial(cfg, "graph", graphTail, newGraph)
}

// newGraph generates the seed's graph, shards both operators over the
// stacks, builds their plans and computes the serial references.
func newGraph(seed int64) (serialWorkload, error) {
	g := &graphWL{setup: map[string]float64{}}
	t0 := time.Now()
	adj, err := sparse.RGG(graphN, graphDegree, seed)
	if err != nil {
		return nil, err
	}
	g.setup["sparse.generate_s"] = time.Since(t0).Seconds()
	g.n = adj.Rows
	g.source = int(uint64(seed) % uint64(adj.Rows))

	if g.refPR, err = graph.PageRankSerial(adj, graphAlpha, graphPRIters); err != nil {
		return nil, err
	}
	if g.refBFS, g.refIters, err = graph.BFSSerial(adj, g.source, graphBFSRound); err != nil {
		return nil, err
	}

	prOp, bias, err := graph.PageRankOperator(adj, graphAlpha)
	if err != nil {
		return nil, err
	}
	bfsOp, err := graph.BFSOperator(adj)
	if err != nil {
		return nil, err
	}
	rc := mealibrt.DefaultConfig()
	rc.Driver.DataSize = graphData
	if g.sys, err = multistack.New(multistack.Config{Stacks: graphStacks, Runtime: rc}); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if g.pr, err = g.sys.Shard(prOp); err != nil {
		return nil, err
	}
	if g.bfs, err = g.sys.Shard(bfsOp); err != nil {
		return nil, err
	}
	g.setup["multistack.shard_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	if err := g.pr.BuildPlans(kernels.SemiringPlusTimes, bias); err != nil {
		return nil, err
	}
	if err := g.bfs.BuildPlans(kernels.SemiringMinPlus, graph.Unreached); err != nil {
		return nil, err
	}
	g.setup["multistack.build_plans_s"] = time.Since(t0).Seconds()
	return g, nil
}

func (g *graphWL) setupMetrics() map[string]float64 { return g.setup }

// close has nothing to release: the system holds no goroutines or files.
func (g *graphWL) close() error { return nil }

// step runs one Step and books its model accounting into l. The energy
// parts come from the runtime's Stats and the interconnect's energy counter
// around the step; they must add up to the step's own IterStats.Energy.
func (g *graphWL) step(tk *track, id int64, sh *multistack.Sharded, first bool, l ledger) error {
	rt := g.sys.Runtime()
	before, linkBefore, clockBefore := rt.Stats(), g.sys.Net().Energy(), g.sys.ModelTime()
	var st multistack.IterStats
	err := tk.call("multistack", "multistack.step", id, func() (err error) {
		st, err = sh.Step(context.Background())
		return err
	})
	if err != nil {
		return err
	}
	after, linkAfter := rt.Stats(), g.sys.Net().Energy()
	t := float64(st.ComputeTime + st.ExchangeTime)
	if err := conserve("step time", float64(g.sys.ModelTime()-clockBefore), float64(g.sys.ModelTime()),
		float64(st.ComputeTime), float64(st.ExchangeTime)); err != nil {
		return err
	}
	acc := float64(after.AccelEnergy - before.AccelEnergy)
	ov := float64(after.OverheadEnergy - before.OverheadEnergy)
	idle := float64(after.HostIdleEnergy - before.HostIdleEnergy)
	link := float64(linkAfter - linkBefore)
	scale := float64(after.AccelEnergy+after.OverheadEnergy+after.HostIdleEnergy) + float64(linkAfter)
	if err := conserve("step energy", float64(st.Energy), scale, acc, ov, idle, link); err != nil {
		return err
	}
	l["model_time_us"] += t * 1e6
	l["model_energy_uj"] += float64(st.Energy) * 1e6
	l["multistack.compute_model_us"] += float64(st.ComputeTime) * 1e6
	l["multistack.exchange_model_us"] += float64(st.ExchangeTime) * 1e6
	l["multistack.exchange_kb"] += float64(st.ExchangeBytes) / 1e3
	l["accel.energy_uj"] += acc * 1e6
	l["mealibrt.overhead_energy_uj"] += ov * 1e6
	l["mealibrt.host_idle_energy_uj"] += idle * 1e6
	l["noc.link_energy_uj"] += link * 1e6
	l["mealibrt.launches"] += float64(after.Invocations - before.Invocations)
	if first {
		// PageRank and BFS each start from SetX: the mean of their first
		// steps.
		l["multistack.first_step_model_us"] += t * 1e6 / 2
	}
	return nil
}

// readX reads the working vector back.
func readX(tk *track, id int64, sh *multistack.Sharded) ([]float32, error) {
	var x []float32
	err := tk.call("multistack", "multistack.x", id, func() (err error) { x, err = sh.X(); return err })
	return x, err
}

func (g *graphWL) unit(tk *track, id int64) (ledger, error) {
	tk.begin("bench", "graph.solve", id)
	defer tk.end()
	l := ledger{}

	x := make([]float32, g.n)
	for i := range x {
		x[i] = 1 / float32(g.n)
	}
	if err := tk.call("multistack", "multistack.set_x", id, func() error { return g.pr.SetX(x) }); err != nil {
		return nil, err
	}
	for it := 0; it < graphPRIters; it++ {
		if err := g.step(tk, id, g.pr, it == 0, l); err != nil {
			return nil, err
		}
	}
	rank, err := readX(tk, id, g.pr)
	if err != nil {
		return nil, err
	}

	dist := make([]float32, g.n)
	for i := range dist {
		dist[i] = graph.Unreached
	}
	dist[g.source] = 0
	if err := tk.call("multistack", "multistack.set_x", id, func() error { return g.bfs.SetX(dist) }); err != nil {
		return nil, err
	}
	rounds := 0
	for rounds < graphBFSRound {
		if err := g.step(tk, id, g.bfs, rounds == 0, l); err != nil {
			return nil, err
		}
		rounds++
		next, err := readX(tk, id, g.bfs)
		if err != nil {
			return nil, err
		}
		tk.begin("bench", "bench.fixed_point", id)
		fixed := diffFloat32(next, dist) < 0
		tk.end()
		dist = next
		if fixed {
			break
		}
	}
	l["graph.bfs_iters"] = float64(rounds)

	err = tk.call("bench", "bench.check", id, func() error {
		if i := diffFloat32(rank, g.refPR); i >= 0 {
			return fmt.Errorf("pagerank element %d: %w", i, errMismatch)
		}
		if i := diffFloat32(dist, g.refBFS); i >= 0 {
			return fmt.Errorf("bfs element %d: %w", i, errMismatch)
		}
		if rounds != g.refIters {
			return fmt.Errorf("bfs took %d rounds, serial reference %d: %w", rounds, g.refIters, errMismatch)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}
