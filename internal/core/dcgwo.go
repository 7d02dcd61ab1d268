package core

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"repro/internal/netlist"
)

// search is DCGWO's circuit-searching action, on the Config's critical
// margin with its SearchTries (at least one) samples of Tc.
func (o *Optimizer) search(ind *Individual) (*netlist.Circuit, error) {
	return o.searchClone(ind, o.cfg.CritMargin, max(1, o.cfg.SearchTries))
}

// reproduceWith merges ind with the partner (falling back to a clone of
// the better parent plus a searching move when the merge is cyclic).
func (o *Optimizer) reproduceWith(ind, partner *Individual) (*netlist.Circuit, error) {
	if o.cfg.DisableReproduction {
		return o.search(ind)
	}
	child := reproduce(ind, partner, o.wt, o.cfg.WeightErr)
	if child != nil {
		return child, nil
	}
	better := ind
	if partner.Fit > ind.Fit {
		better = partner
	}
	return o.search(better)
}

// Run executes the full DCGWO loop and returns the best approximate
// circuit found under the error budget.
func (o *Optimizer) Run() (*Result, error) { return o.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the context is checked
// once per iteration (and before the initial population is evaluated), and
// a cancelled run returns an error wrapping ctx.Err(). The check draws no
// randomness, so a run that is never cancelled is bit-identical to Run,
// and a cancelled-then-rerun flow reproduces the original result exactly.
func (o *Optimizer) RunContext(ctx context.Context) (*Result, error) {
	cfg := o.cfg
	r, err := o.begin(ctx)
	if err != nil {
		return nil, err
	}
	// Initial population P0: the accurate circuit plus clones mutated by
	// InitLACs random LACs each.
	pop, err := o.initial(cfg.PopulationSize-1, cfg.InitLACs)
	if err != nil {
		return nil, err
	}
	first := pop[0]

	// Quadratic relaxation Err(iter) = b·iter² + Err0 (paper §III-B),
	// with b chosen so the constraint reaches the budget at
	// RelaxAt·Imax and holds there.
	err0 := cfg.InitErrorFrac * cfg.ErrorBudget
	relaxAt := cfg.RelaxAt
	if relaxAt <= 0 || relaxAt > 1 {
		relaxAt = 0.7
	}
	relaxIters := relaxAt * float64(cfg.MaxIter)
	bQuad := (cfg.ErrorBudget - err0) / (relaxIters * relaxIters)

	// The running best is tracked over everything evaluated, not just
	// selection survivors: a child rejected by the current relaxed
	// constraint may still satisfy the user's final budget.
	r.consider(bestFeasible(pop, cfg.ErrorBudget))

	for iter := 1; iter <= cfg.MaxIter; iter++ {
		if err := r.round(iter); err != nil {
			return nil, err
		}
		errAllowed := math.Min(cfg.ErrorBudget, err0+bQuad*float64(iter*iter))
		a := 2 - 2*float64(iter)/float64(cfg.MaxIter)

		sort.Slice(pop, func(i, j int) bool { return pop[i].Fit > pop[j].Fit })
		leader := pop[0]
		elite := pop[1:4]
		omega := pop[4:]
		eliteMean := (elite[0].Fit + elite[1].Fit + elite[2].Fit) / 3

		candidates := append([]*Individual(nil), pop...)

		// Children are generated serially (every rng draw happens in the
		// original order) but evaluated as one parallel batch afterwards.
		// Evaluation is pure, so deferring it changes nothing; `children`
		// records the generation order so the candidate pool and the
		// running-best updates see the exact sequence the serial code
		// produced. The one exception is the ω "both actions" case, whose
		// searched circuit must be evaluated inline: circuit reproduction
		// consults its fitness and per-PO levels.
		var pending []*netlist.Circuit
		type childRef struct {
			ind   *Individual // non-nil for inline-evaluated children
			batch int         // index into pending otherwise
		}
		var children []childRef
		addChild := func(c *netlist.Circuit) {
			children = append(children, childRef{batch: len(pending)})
			pending = append(pending, c)
		}

		// Chase 1: elite circuits consult the leader.
		for _, ci := range elite {
			d := math.Abs(o.rng.Float64()*2*leader.Fit - ci.Fit)
			w := (2*o.rng.Float64() - 1) * a * d
			var child *netlist.Circuit
			if w > cfg.EliteThreshold {
				child, err = o.reproduceWith(ci, superior(pop, ci, o.rng))
			} else {
				child, err = o.search(ci)
			}
			if err != nil {
				return nil, err
			}
			addChild(child)
		}

		// Chase 2: ω circuits consult the elite group.
		for _, ci := range omega {
			d := math.Abs(o.rng.Float64()*2*eliteMean - ci.Fit)
			w := (2*o.rng.Float64() - 1) * a * d
			partner := elite[o.rng.Intn(len(elite))]
			switch {
			case w > cfg.OmegaThreshold:
				// Both actions: search, evaluate, then reproduce the
				// searched circuit with an elite partner. Both results
				// join the candidate pool.
				searched, err := o.search(ci)
				if err != nil {
					return nil, err
				}
				sInd, err := o.eval.Evaluate(searched)
				if err != nil {
					return nil, err
				}
				children = append(children, childRef{ind: sInd})
				child, err := o.reproduceWith(sInd, partner)
				if err != nil {
					return nil, err
				}
				addChild(child)
			case o.rng.Float64() < 0.5:
				child, err := o.search(ci)
				if err != nil {
					return nil, err
				}
				addChild(child)
			default:
				child, err := o.reproduceWith(ci, partner)
				if err != nil {
					return nil, err
				}
				addChild(child)
			}
		}

		// The leader searches after the double chase to keep varying.
		leaderChild, err := o.search(leader)
		if err != nil {
			return nil, err
		}
		addChild(leaderChild)

		evaluated, err := o.eval.EvaluateBatch(pending)
		if err != nil {
			return nil, err
		}
		for _, ref := range children {
			ind := ref.ind
			if ind == nil {
				ind = evaluated[ref.batch]
			}
			r.consider(ind)
			candidates = append(candidates, ind)
		}

		// Population update: drop over-constraint candidates, then
		// non-dominated sort + crowding selection.
		feasible := candidates[:0:0]
		for _, ind := range candidates {
			if ind.Err <= errAllowed {
				feasible = append(feasible, ind)
			}
		}
		if len(feasible) == 0 {
			feasible = append(feasible, first) // the exact circuit always fits
		}
		pop = selectSurvivors(feasible, cfg.PopulationSize, o.eval.RefDelay(), o.eval.RefArea())
		for len(pop) < cfg.PopulationSize {
			pop = append(pop, first)
		}
		// Elitism: the best feasible circuit found so far always stays in
		// the pack (it is the leader the next chase consults), replacing
		// the worst survivor if the Pareto selection dropped it.
		if best := r.best; best != nil && best.Err <= errAllowed {
			present := false
			for _, ind := range pop {
				if ind == best {
					present = true
					break
				}
			}
			if !present {
				worst := 0
				for i, ind := range pop {
					if ind.Fit < pop[worst].Fit {
						worst = i
					}
				}
				pop[worst] = best
			}
		}
		r.checkpoint(iter, errAllowed)
	}
	return r.result(pop), nil
}

// superior returns a random population member with strictly better fitness
// than ci (the leader qualifies by construction).
func superior(pop []*Individual, ci *Individual, rng *rand.Rand) *Individual {
	var better []*Individual
	for _, p := range pop {
		if p.Fit > ci.Fit {
			better = append(better, p)
		}
	}
	if len(better) == 0 {
		return pop[0]
	}
	return better[rng.Intn(len(better))]
}
