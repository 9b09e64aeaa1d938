package experiments

import (
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/codec"
)

// AblationCache measures the §6.2 lesson ("Cache data that will be
// reused"): total consumer batch time with and without caching the
// deserialized stream, on the replay consumer. Uncached, the
// distinct-devices pass recomputes the decode lineage the ML pass
// collected, so every record is deserialized twice.
func AblationCache(env *Env) (cached, uncached time.Duration, err error) {
	verifier, replay, err := streamVerifier(env, env.Scale.StreamAlarms)
	if err != nil {
		return 0, 0, err
	}
	run := func(cache bool) (time.Duration, error) {
		b, _, err := preload(replay, env.Scale.Partitions, 2, codec.ReflectCodec{})
		if err != nil {
			return 0, err
		}
		defer b.Close()
		// The slow codec makes the recompute visible.
		r, err := newReplay(b, "ablate", verifier, nil, codec.ReflectCodec{}, 0, cache)
		if err != nil {
			return 0, err
		}
		defer r.close()
		if _, err := r.batch(); err != nil {
			return 0, err
		}
		return r.app.Times().Total(), nil
	}
	if cached, err = run(true); err != nil {
		return 0, 0, err
	}
	if uncached, err = run(false); err != nil {
		return 0, 0, err
	}
	return cached, uncached, nil
}

// AblationDeltaTBalance measures how the duration-threshold label
// heuristic shifts class balance with Δt — the sensitivity behind the
// paper's Figure 9 stability claim.
func AblationDeltaTBalance(env *Env, deltas []time.Duration) map[time.Duration]float64 {
	out := make(map[time.Duration]float64, len(deltas))
	alarms := env.Alarms()
	for _, dt := range deltas {
		pos := 0
		for i := range alarms {
			if alarm.DurationLabel(time.Duration(alarms[i].Duration*float64(time.Second)), dt) == alarm.True {
				pos++
			}
		}
		out[dt] = float64(pos) / float64(len(alarms))
	}
	return out
}
