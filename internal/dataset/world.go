// Package dataset synthesizes the three alarm datasets of the paper's
// evaluation (§5.1) and the multilingual incident-report corpus of the
// hybrid approach (§5.2), and encodes them into ml feature matrices.
//
// The real Sitasys production data (350K alarms, Oct 2015–Apr 2016)
// is proprietary, and the London/San Francisco open-data snapshots are
// not shipped; each generator therefore plants the statistical
// structure the paper reports so that the evaluation reproduces the
// paper's *shape*:
//
//   - Sitasys: sensor-specific features (sensor type × software
//     version fault interactions) push non-linear models above 90 %
//     while linear models trail by a few points (Figures 9–10);
//     labels derive from the alarm-duration heuristic, stable across
//     Δt ∈ [1,10] min (§5.1.1, Figure 9).
//   - London Fire Brigade: 885K incidents, 48 % false, generic
//     features only, ≈85 % ceiling (Figure 6, Figure 10).
//   - San Francisco: a 4.3M-scale schema where >50 % of records carry
//     the useless "other" disposition, medical incidents dominate,
//     property type is missing, and only ≈12K alarm/fire records are
//     usable — yielding ≈80 % accuracy (§5.1.3, Figure 10).
//   - Incidents: 5,056 reports (2,743 de / 1,516 fr / 797 en) over
//     1,027 locations whose intensity correlates with the latent
//     per-place risk used by the alarm generator, so a-priori risk
//     factors carry genuine out-of-band signal (§5.2, Table 9).
package dataset

import (
	"math/rand"

	"alarmverify/internal/risk"
)

// World ties the alarm generator and the incident-report generator to
// the same synthetic country and the same latent per-place risk, so
// that external incident reports genuinely inform alarm verification
// — the premise of the hybrid approach.
type World struct {
	Gaz *risk.Gazetteer
	// placeRisk is the latent incident propensity of each place in
	// [0, 1]; alarms from risky places are more likely true, and
	// risky places produce more incident reports.
	placeRisk map[string]float64
	seed      int64
}

// NewWorld builds the synthetic country with the default paper-scale
// gazetteer.
func NewWorld(seed int64) *World {
	return NewWorldWith(risk.NewGazetteer(risk.DefaultGazetteerConfig()), seed)
}

// NewWorldWith builds a world over an existing gazetteer (tests use
// small ones).
func NewWorldWith(gaz *risk.Gazetteer, seed int64) *World {
	w := &World{
		Gaz:       gaz,
		placeRisk: make(map[string]float64),
		seed:      seed,
	}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range gaz.Places() {
		// Beta(2,5)-like skew: most places calm, a tail of hotspots.
		r := rng.Float64()
		r2 := rng.Float64()
		w.placeRisk[p.Name] = r * r2
	}
	return w
}

// PlaceRisk returns the latent risk of a place (0 for unknown names).
func (w *World) PlaceRisk(name string) float64 { return w.placeRisk[name] }
