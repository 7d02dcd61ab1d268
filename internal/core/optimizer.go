package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cell"
	"repro/internal/lac"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

// Optimizer runs one method — DCGWO (RunContext) or one of the four
// baselines (VecbeeSasimi, VaACS, HEDALS, SingleChaseGWO) — on one
// accurate circuit. Every method starts from the same setup, so a run is
// fully determined by the Config and the method.
type Optimizer struct {
	cfg  Config
	lib  *cell.Library
	base *netlist.Circuit // accurate circuit with constants materialized
	eval *Evaluator
	rng  *rand.Rand
	wt   float64 // Level weight wt = 0.9·CPDori
}

// New prepares a run: it validates the Config, clones the accurate
// circuit, materializes the constant gates (so the whole population
// shares one gate ID space), samples the Monte-Carlo vectors, and
// measures the reference delay/area.
func New(accurate *netlist.Circuit, lib *cell.Library, cfg Config) (*Optimizer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	base := accurate.Clone()
	base.Const0()
	base.Const1()
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("core: accurate circuit: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	vectors := sim.Random(rng, len(base.PIs), cfg.Vectors)
	eval, err := NewEvaluator(base, lib, cfg.Metric, cfg.DepthWeight, vectors)
	if err != nil {
		return nil, err
	}
	eval.SetMaxWorkers(cfg.EvalWorkers)
	return &Optimizer{
		cfg:  cfg,
		lib:  lib,
		base: base,
		rng:  rng,
		wt:   0.9 * eval.RefDelay(),
		eval: eval,
	}, nil
}

// RefDelay returns CPDori of the accurate circuit under this library.
func (o *Optimizer) RefDelay() float64 { return o.eval.RefDelay() }

// RefArea returns Areaori of the accurate circuit.
func (o *Optimizer) RefArea() float64 { return o.eval.RefArea() }

// runState is the bookkeeping every method shares: the round-boundary
// cancellation check, the running best with its OnImproved hook, the
// end-of-round History/Progress checkpoint and the Result assembly. None
// of it draws randomness, so hooks and cancellation checks never perturb
// a run.
type runState struct {
	ctx     context.Context
	o       *Optimizer
	best    *Individual
	history []IterStats
}

// begin checks the context before any work is done.
func (o *Optimizer) begin(ctx context.Context) (*runState, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: optimization cancelled before start: %w", err)
	}
	return &runState{ctx: ctx, o: o}, nil
}

// round opens round iter (1-based): it reports cancellation and starts a
// new evaluation-cache generation.
func (r *runState) round(iter int) error {
	if err := r.ctx.Err(); err != nil {
		return fmt.Errorf("core: optimization cancelled at iteration %d/%d: %w", iter, r.o.cfg.MaxIter, err)
	}
	r.o.eval.BeginGeneration()
	return nil
}

// consider makes ind the running best if it meets the final budget and
// is strictly fitter, reporting it to OnImproved. A nil ind is ignored.
func (r *runState) consider(ind *Individual) {
	cfg := &r.o.cfg
	if ind == nil || ind.Err > cfg.ErrorBudget || (r.best != nil && ind.Fit <= r.best.Fit) {
		return
	}
	r.best = ind
	if cfg.OnImproved != nil {
		cfg.OnImproved(ind)
	}
}

// checkpoint closes round iter: it appends the round's stats to History
// and reports them to Progress.
func (r *runState) checkpoint(iter int, errAllowed float64) {
	st := IterStats{
		Iter:        iter,
		ErrAllowed:  errAllowed,
		Evaluations: r.o.eval.Count(),
		Cache:       r.o.eval.CacheStats(),
	}
	if b := r.best; b != nil {
		st.BestFit, st.BestDelay, st.BestArea, st.BestErr = b.Fit, b.Delay, b.Area, b.Err
	}
	r.history = append(r.history, st)
	if r.o.cfg.Progress != nil {
		r.o.cfg.Progress(st)
	}
}

// result assembles the Result, with Front drawn from the best and the
// method's final candidates.
func (r *runState) result(final []*Individual) *Result {
	e := r.o.eval
	return &Result{
		Best:        r.best,
		Front:       FeasibleFront(r.best, final, r.o.cfg.ErrorBudget, e.RefDelay(), e.RefArea()),
		History:     r.history,
		Evaluations: e.Count(),
		Cache:       e.CacheStats(),
	}
}

// initial opens the first evaluation-cache generation and evaluates the
// initial population: the exact circuit first, then mutants clones of
// it, each mutated by lacs random LACs. The mutants are drawn serially
// (consuming rng) and evaluated as one parallel batch.
func (o *Optimizer) initial(mutants, lacs int) ([]*Individual, error) {
	o.eval.BeginGeneration()
	exact, err := o.eval.Evaluate(o.base.Clone())
	if err != nil {
		return nil, err
	}
	clones := make([]*netlist.Circuit, mutants)
	for i := range clones {
		if clones[i], err = o.mutate(exact, lacs); err != nil {
			return nil, err
		}
	}
	inds, err := o.eval.EvaluateBatch(clones)
	if err != nil {
		return nil, err
	}
	return append([]*Individual{exact}, inds...), nil
}

// mutate clones the individual's circuit and applies n random LACs
// (similarity picks on random targets, each on a fresh simulation,
// consuming rng); evaluation is left to the caller so independent mutants
// can be batched.
func (o *Optimizer) mutate(ind *Individual, n int) (*netlist.Circuit, error) {
	clone := ind.Circuit.Clone()
	for k := 0; k < n; k++ {
		res, err := o.eval.Simulate(clone)
		if err != nil {
			return nil, err
		}
		lac.RandomChange(clone, res, o.rng)
	}
	return clone, nil
}

// searchClone applies one circuit-searching action to a fresh clone of the
// individual: simulate, time, build Tc from the paths within margin of the
// CPD, sample tries targets, substitute the most similar switch. When the
// netlist offers no searching move (e.g. the critical path is a bare wire)
// it falls back to a random LAC. The clone is simulated by the incremental
// engine (it differs from the accurate circuit only by the parent's
// accumulated LACs), which is exact, so the similarity-guided pick is
// identical to one made on a full simulation.
func (o *Optimizer) searchClone(ind *Individual, margin float64, tries int) (*netlist.Circuit, error) {
	clone := ind.Circuit.Clone()
	res, err := o.eval.Simulate(clone)
	if err != nil {
		return nil, err
	}
	rep, err := sta.Analyze(clone, o.lib)
	if err != nil {
		return nil, err
	}
	if _, ok := lac.SearchN(clone, res, rep, o.rng, margin, tries); !ok {
		lac.RandomChange(clone, res, o.rng)
	}
	return clone, nil
}

// bestFeasible returns the highest-fitness individual within the final
// error budget, or nil.
func bestFeasible(pop []*Individual, budget float64) *Individual {
	var best *Individual
	for _, ind := range pop {
		if ind.Err <= budget && (best == nil || ind.Fit > best.Fit) {
			best = ind
		}
	}
	return best
}
