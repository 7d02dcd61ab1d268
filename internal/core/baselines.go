package core

import (
	"context"
	"math"
	"sort"

	"repro/internal/lac"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// The four baselines run on the same Optimizer as DCGWO: they take their
// rounds from Config.MaxIter and their population from PopulationSize,
// and differ from DCGWO's Config in only these three values.
const (
	// baselineCritMargin widens the critical-path candidate set of HEDALS
	// and single-chase GWO.
	baselineCritMargin = 0.05
	// greedyCandidates bounds how many target gates a greedy round tries.
	greedyCandidates = 24
	// baselineWeightErr is we in the Level function of the VaACS and
	// single-chase GWO reproduction.
	baselineWeightErr = 0.1
)

// VecbeeSasimi runs the area-driven greedy baseline: per round, apply the
// LAC with the best area saving that keeps the error within budget.
func (o *Optimizer) VecbeeSasimi(ctx context.Context) (*Result, error) { return o.greedy(ctx, false) }

// HEDALS runs the delay-driven greedy baseline: per round, apply the
// critical-path LAC with the best delay reduction under the error budget.
func (o *Optimizer) HEDALS(ctx context.Context) (*Result, error) { return o.greedy(ctx, true) }

// greedy implements both VECBEE-SASIMI (area objective, targets anywhere)
// and HEDALS (delay objective, targets on critical paths): per round,
// enumerate candidate LACs, evaluate each on a clone, and commit the best
// feasible improvement. Three rounds in a row without one end the run.
func (o *Optimizer) greedy(ctx context.Context, delay bool) (*Result, error) {
	score := func(ind *Individual) float64 {
		if delay {
			return ind.Delay
		}
		return ind.Area
	}
	r, err := o.begin(ctx)
	if err != nil {
		return nil, err
	}
	pop, err := o.initial(0, 0)
	if err != nil {
		return nil, err
	}
	cur := pop[0]
	r.consider(cur)
	failures := 0
	for iter := 1; iter <= o.cfg.MaxIter; iter++ {
		if err := r.round(iter); err != nil {
			return nil, err
		}
		res, err := o.eval.Simulate(cur.Circuit)
		if err != nil {
			return nil, err
		}
		rep, err := sta.Analyze(cur.Circuit, o.lib)
		if err != nil {
			return nil, err
		}
		// Candidate LACs are selected serially against the shared
		// simulation, then the clones are evaluated as one parallel batch.
		targets := o.pickTargets(cur.Circuit, rep, delay)
		clones := make([]*netlist.Circuit, 0, len(targets))
		for _, target := range targets {
			// The greedy methods use SASIMI's full catalogue including
			// the inverted-wire substitution.
			ch, ok := lac.BestSwitchInv(cur.Circuit, res, rep, target)
			if !ok {
				continue
			}
			clone := cur.Circuit.Clone()
			lac.Apply(clone, ch)
			clones = append(clones, clone)
		}
		kids, err := o.eval.EvaluateBatch(clones)
		if err != nil {
			return nil, err
		}
		var bestChild *Individual
		for _, child := range kids {
			if child.Err > o.cfg.ErrorBudget || score(child) >= score(cur) {
				continue
			}
			if bestChild == nil || score(child) < score(bestChild) {
				bestChild = child
			}
		}
		// A dry round may just be an unlucky target sample; give the
		// greedy a few more draws before concluding it has converged.
		if bestChild != nil {
			cur = bestChild
			r.consider(cur)
			failures = 0
		} else {
			failures++
		}
		r.checkpoint(iter, o.cfg.ErrorBudget)
		if failures >= 3 {
			break
		}
	}
	return r.result([]*Individual{cur}), nil
}

// pickTargets selects candidate target gates for one greedy round: HEDALS
// draws from the critical paths; SASIMI samples live physical gates
// uniformly. Both are capped at greedyCandidates.
func (o *Optimizer) pickTargets(c *netlist.Circuit, rep *sta.Report, delay bool) []int {
	var pool []int
	if delay {
		pool = rep.CriticalGates(c, baselineCritMargin)
	} else {
		live := c.Live()
		for id, g := range c.Gates {
			if live[id] && !g.Func.IsPseudo() {
				pool = append(pool, id)
			}
		}
	}
	o.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > greedyCandidates {
		pool = pool[:greedyCandidates]
	}
	return pool
}

// VaACS runs the genetic baseline: elitist selection on a delay-driven
// fitness, offspring by LAC mutation and reproduction-style crossover,
// infeasible individuals discarded. Offspring are generated serially
// (preserving the rng stream) and evaluated in parallel batches.
func (o *Optimizer) VaACS(ctx context.Context) (*Result, error) {
	cfg := o.cfg
	r, err := o.begin(ctx)
	if err != nil {
		return nil, err
	}
	pop, err := o.initial(cfg.PopulationSize-1, 1)
	if err != nil {
		return nil, err
	}
	r.consider(pop[0])
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		if err := r.round(iter); err != nil {
			return nil, err
		}
		// Delay-driven fitness: feasible first, then faster first.
		sort.Slice(pop, func(i, j int) bool {
			fi, fj := pop[i].Err <= cfg.ErrorBudget, pop[j].Err <= cfg.ErrorBudget
			if fi != fj {
				return fi
			}
			return pop[i].Delay < pop[j].Delay
		})
		r.consider(pop[0])
		elite := pop[:max(2, cfg.PopulationSize/4)]
		next := append([]*Individual(nil), elite...)
		offspring := make([]*netlist.Circuit, 0, cfg.PopulationSize-len(next))
		for len(next)+len(offspring) < cfg.PopulationSize {
			p1 := elite[o.rng.Intn(len(elite))]
			if o.rng.Float64() < 0.5 {
				p2 := pop[o.rng.Intn(len(pop))]
				if child := reproduce(p1, p2, o.wt, baselineWeightErr); child != nil {
					offspring = append(offspring, child)
					continue
				}
			}
			child, err := o.mutate(p1, 1)
			if err != nil {
				return nil, err
			}
			offspring = append(offspring, child)
		}
		inds, err := o.eval.EvaluateBatch(offspring)
		if err != nil {
			return nil, err
		}
		pop = append(next, inds...)
		if iter == cfg.MaxIter {
			// The last generation's offspring never reach a sort, so
			// they compete for the best before the final checkpoint.
			for _, ind := range pop {
				r.consider(ind)
			}
		}
		r.checkpoint(iter, cfg.ErrorBudget)
	}
	return r.result(pop), nil
}

// SingleChaseGWO runs the traditional grey wolf optimizer: every
// non-alpha wolf consults the alpha only (one chase), actions decided by
// the same W-threshold rule as DCGWO, survivors picked by plain fitness
// truncation — no population division and no Pareto selection.
func (o *Optimizer) SingleChaseGWO(ctx context.Context) (*Result, error) {
	cfg := o.cfg
	r, err := o.begin(ctx)
	if err != nil {
		return nil, err
	}
	pop, err := o.initial(cfg.PopulationSize-1, 1)
	if err != nil {
		return nil, err
	}
	exact := pop[0]
	r.consider(bestFeasible(pop, cfg.ErrorBudget))
	const threshold = 0.5
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		if err := r.round(iter); err != nil {
			return nil, err
		}
		a := 2 - 2*float64(iter)/float64(cfg.MaxIter)
		sort.Slice(pop, func(i, j int) bool { return pop[i].Fit > pop[j].Fit })
		alpha := pop[0]
		candidates := append([]*Individual(nil), pop...)
		// Per-wolf actions consume rng serially; the resulting children
		// are independent and evaluated as one batch.
		offspring := make([]*netlist.Circuit, 0, len(pop)-1)
		for _, ci := range pop[1:] {
			d := math.Abs(o.rng.Float64()*2*alpha.Fit - ci.Fit)
			w := (2*o.rng.Float64() - 1) * a * d
			var child *netlist.Circuit
			if w > threshold {
				child = reproduce(ci, alpha, o.wt, baselineWeightErr)
			}
			if child == nil {
				if child, err = o.searchClone(ci, baselineCritMargin, 1); err != nil {
					return nil, err
				}
			}
			offspring = append(offspring, child)
		}
		kids, err := o.eval.EvaluateBatch(offspring)
		if err != nil {
			return nil, err
		}
		candidates = append(candidates, kids...)
		// Plain truncation: feasible under the FULL budget (no asymptotic
		// relaxation — that refinement is DCGWO's), fittest first.
		feasible := candidates[:0:0]
		for _, ind := range candidates {
			if ind.Err <= cfg.ErrorBudget {
				feasible = append(feasible, ind)
			}
		}
		if len(feasible) == 0 {
			feasible = append(feasible, exact)
		}
		sort.Slice(feasible, func(i, j int) bool { return feasible[i].Fit > feasible[j].Fit })
		if len(feasible) > cfg.PopulationSize {
			feasible = feasible[:cfg.PopulationSize]
		}
		pop = feasible
		r.consider(bestFeasible(pop, cfg.ErrorBudget))
		r.checkpoint(iter, cfg.ErrorBudget)
	}
	return r.result(pop), nil
}
