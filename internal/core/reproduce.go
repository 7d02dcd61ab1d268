package core

import (
	"sort"

	"repro/internal/netlist"
)

// Reproduce exposes circuit reproduction outside the package. It returns
// nil when the parents have different gate ID spaces or the merge would be
// cyclic.
func Reproduce(p1, p2 *Individual, wt, we float64) *netlist.Circuit {
	return reproduce(p1, p2, wt, we)
}

// minPOErr floors the per-PO error in the Level function so error-free
// outputs get a large but finite bonus (the paper divides by Error(POi)).
const minPOErr = 1e-3

// levels computes the PO-TFI pair evaluation function of Eq. 3 for every
// primary output of an evaluated individual:
//
//	Level(POi) = wt·1/Ta(POi) + we·1/Error(POi)
func levels(ind *Individual, wt, we float64) []float64 {
	out := make([]float64, len(ind.POArrival))
	for i := range out {
		ta := ind.POArrival[i]
		if ta <= 0 {
			ta = 1e-9 // PO wired straight to a PI or constant
		}
		errI := ind.PerPO[i]
		if errI < minPOErr {
			errI = minPOErr
		}
		out[i] = wt/ta + we/errI
	}
	return out
}

// reproduce builds a child circuit by aggregating the better PO-TFI pairs
// of two evaluated parents (circuit reproduction, paper §III-B): for each
// PO the parent with the higher Level donates that PO's whole transitive
// fan-in adjacency; gates shared between pairs accept only the first
// write; untouched gates keep parent 1's adjacency. Because parents share
// the accurate circuit's gate ID space, the merge is a per-gate adjacency
// choice. Cross-parent merges can create combinational loops — unique
// gate IDs make the check cheap — and a cyclic merge returns nil so the
// caller can fall back.
func reproduce(p1, p2 *Individual, wt, we float64) *netlist.Circuit {
	c1, c2 := p1.Circuit, p2.Circuit
	if len(c1.Gates) != len(c2.Gates) || len(c1.POs) != len(c2.POs) {
		return nil // different ID spaces: not reproducible
	}
	l1 := levels(p1, wt, we)
	l2 := levels(p2, wt, we)

	type pick struct {
		po    int
		donor *netlist.Circuit
		level float64
	}
	picks := make([]pick, len(c1.POs))
	for i := range picks {
		picks[i] = pick{po: i, donor: c1, level: l1[i]}
		if l2[i] > l1[i] {
			picks[i] = pick{po: i, donor: c2, level: l2[i]}
		}
	}
	// Higher-Level pairs write first, so shared gates follow the better
	// cone (the paper's "first write-in" rule applied best-first).
	sort.Slice(picks, func(a, b int) bool { return picks[a].level > picks[b].level })

	child := c1.Clone()
	written := make([]bool, len(child.Gates))
	for _, pk := range picks {
		donor := pk.donor
		tfi := donor.TFI(donor.POs[pk.po])
		for id, in := range tfi {
			if !in || written[id] {
				continue
			}
			written[id] = true
			if donor == c1 {
				continue // scaffold already holds parent 1's adjacency
			}
			g := donor.Gates[id]
			g.Name = child.Gates[id].Name
			child.SetGate(id, g) // invalidates the cloned topology cache
		}
	}
	if _, err := child.TopoOrder(); err != nil {
		return nil
	}
	return child
}
