package risk

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Place is one city or village.
type Place struct {
	Name       string
	ZIPs       []string // one for villages, several for big cities
	Population int
	// X, Y position the place on the synthetic country grid used by
	// the security map (Figure 8).
	X, Y float64
}

// MultiZIP reports whether the place has more than one ZIP code —
// the distinction behind Table 9's scenarios (c) and (d).
func (p *Place) MultiZIP() bool { return len(p.ZIPs) > 1 }

// Gazetteer is the synthetic country: places addressable by name and
// by ZIP code.
type Gazetteer struct {
	places []Place
	byName map[string]*Place
	byZIP  map[string]*Place
}

// GazetteerConfig sizes the synthetic country.
type GazetteerConfig struct {
	// NumPlaces is the number of cities and villages. The paper's
	// incident corpus covers 1,027 of about 4× as many Swiss places
	// (§5.2: "around 1/4 of all cities and villages").
	NumPlaces int
	// NumBigCities get multiple ZIP codes (Basel and Zurich-like).
	NumBigCities int
	// MaxZIPsPerCity bounds the district count of a big city.
	MaxZIPsPerCity int
	Seed           int64
}

// DefaultGazetteerConfig matches the paper's setting: roughly 4,100
// places so that 1,027 covered locations ≈ 1/4 of the country.
func DefaultGazetteerConfig() GazetteerConfig {
	return GazetteerConfig{
		NumPlaces:      4100,
		NumBigCities:   25,
		MaxZIPsPerCity: 8,
		Seed:           1871, // arbitrary fixed seed: the country is stable
	}
}

// nameSyllables generate pronounceable deterministic place names.
var (
	namePrefixes = []string{
		"Ober", "Unter", "Nieder", "Alt", "Neu", "Gross", "Klein", "Hinter",
		"Vorder", "Mittel", "Ost", "West", "Sankt", "Bad",
	}
	nameStems = []string{
		"dorf", "wil", "ingen", "berg", "tal", "bach", "feld", "hausen",
		"brunn", "egg", "matt", "ried", "au", "hof", "kirch", "see",
		"weiler", "stein", "burg", "wald",
	}
	nameRoots = []string{
		"Alt", "Birr", "Buch", "Dieti", "Eber", "Frauen", "Gelter", "Hoch",
		"Iller", "Jegen", "Kalt", "Lang", "Muri", "Nuss", "Otten", "Pfäff",
		"Regens", "Schaff", "Turben", "Uster", "Villm", "Wangen", "Zolli",
		"Aesch", "Baar", "Chur", "Davos", "Emmen", "Flims", "Gland", "Horw",
	}
)

// NewGazetteer builds the synthetic country for cfg.
func NewGazetteer(cfg GazetteerConfig) *Gazetteer {
	if cfg.NumPlaces < 1 {
		cfg.NumPlaces = 1
	}
	if cfg.NumBigCities > cfg.NumPlaces {
		cfg.NumBigCities = cfg.NumPlaces
	}
	if cfg.MaxZIPsPerCity < 2 {
		cfg.MaxZIPsPerCity = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Gazetteer{
		byName: make(map[string]*Place),
		byZIP:  make(map[string]*Place),
	}
	usedNames := make(map[string]bool)
	nextZIP := 1000
	for i := 0; i < cfg.NumPlaces; i++ {
		name := genName(rng, usedNames)
		// Power-law population: many villages, few big cities. Big
		// cities (the first NumBigCities) get boosted populations.
		pop := int(500 * math.Pow(10, rng.Float64()*1.8)) // 500 .. ~31k
		nZIPs := 1
		if i < cfg.NumBigCities {
			pop = 50_000 + rng.Intn(350_000)
			nZIPs = 2 + rng.Intn(cfg.MaxZIPsPerCity-1)
		}
		zips := make([]string, nZIPs)
		for z := range zips {
			zips[z] = fmt.Sprintf("%04d", nextZIP)
			nextZIP++
		}
		p := Place{
			Name:       name,
			ZIPs:       zips,
			Population: pop,
			X:          rng.Float64(),
			Y:          rng.Float64(),
		}
		g.places = append(g.places, p)
	}
	for i := range g.places {
		p := &g.places[i]
		g.byName[p.Name] = p
		for _, z := range p.ZIPs {
			g.byZIP[z] = p
		}
	}
	return g
}

func genName(rng *rand.Rand, used map[string]bool) string {
	for {
		var name string
		switch rng.Intn(3) {
		case 0:
			name = namePrefixes[rng.Intn(len(namePrefixes))] +
				nameStems[rng.Intn(len(nameStems))]
		case 1:
			name = nameRoots[rng.Intn(len(nameRoots))] +
				nameStems[rng.Intn(len(nameStems))]
		default:
			name = nameRoots[rng.Intn(len(nameRoots))] +
				nameStems[rng.Intn(len(nameStems))] + " " +
				namePrefixes[rng.Intn(len(namePrefixes))]
		}
		if !used[name] {
			used[name] = true
			return name
		}
		// Collision: extend with a numbered hamlet suffix.
		for n := 2; ; n++ {
			cand := fmt.Sprintf("%s %d", name, n)
			if !used[cand] {
				used[cand] = true
				return cand
			}
		}
	}
}

// Places returns all places.
func (g *Gazetteer) Places() []Place { return g.places }

// Names returns all canonical place names (gazetteer input for the
// text pipeline's location extraction).
func (g *Gazetteer) Names() []string {
	out := make([]string, len(g.places))
	for i := range g.places {
		out[i] = g.places[i].Name
	}
	return out
}

// ByName resolves a place by canonical name.
func (g *Gazetteer) ByName(name string) (*Place, bool) {
	p, ok := g.byName[name]
	return p, ok
}

// ByZIP resolves a place by one of its ZIP codes.
func (g *Gazetteer) ByZIP(zip string) (*Place, bool) {
	p, ok := g.byZIP[zip]
	return p, ok
}

// SortedByPopulation returns places largest-first (used by report
// generators: incidents concentrate where people are).
func (g *Gazetteer) SortedByPopulation() []*Place {
	out := make([]*Place, len(g.places))
	for i := range g.places {
		out[i] = &g.places[i]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Population > out[j].Population })
	return out
}
