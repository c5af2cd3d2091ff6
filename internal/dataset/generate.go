package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Config controls synthetic IMDB generation.
type Config struct {
	Seed  int64
	Scale float64 // 1.0 ≈ 330k total rows; tests use much smaller scales
}

// Fixed dimension-table vocabularies. These include the exact literals the
// paper's running examples use so the string-embedding pipeline sees the same
// predicate families ("production companies", "top 250 rank", ...).
var (
	kindTypes = []string{"movie", "tv series", "tv movie", "video movie", "tv mini series", "video game", "episode"}

	companyTypes = []string{"production companies", "distributors", "special effects companies", "miscellaneous companies"}

	roleTypes = []string{"actor", "actress", "producer", "writer", "cinematographer", "composer",
		"costume designer", "director", "editor", "miscellaneous crew", "production designer", "guest"}

	linkTypes = []string{"follows", "followed by", "remake of", "remade as", "references", "referenced in",
		"spoofs", "spoofed in", "features", "featured in", "spin off from", "spin off",
		"version of", "similar to", "edited into", "edited from", "alternate language version of", "unknown link"}

	compCastTypes = []string{"cast", "crew", "complete", "complete+verified"}

	genres = []string{"Drama", "Comedy", "Documentary", "Action", "Thriller", "Horror",
		"Romance", "Animation", "Crime", "Adventure", "Family", "Sci-Fi"}

	languages = []string{"English", "French", "German", "Spanish", "Japanese", "Italian", "Mandarin", "Hindi"}

	countries = []string{"USA", "UK", "France", "Germany", "Japan", "Canada", "Italy", "Spain", "India", "Australia"}

	countryCodes = []string{"[us]", "[gb]", "[fr]", "[de]", "[jp]", "[ca]", "[it]", "[es]", "[in]", "[au]"}

	companySuffixes = []string{"Pictures", "Films", "Entertainment", "Productions", "Studios", "Media", "Bros.", "Television"}

	keywordWords = []string{"murder", "love", "death", "revenge", "friendship", "police", "family",
		"war", "money", "school", "dream", "blood", "night", "city", "secret", "island",
		"doctor", "king", "robot", "alien", "ghost", "dance", "song", "fire", "winter"}

	syllables = []string{"ka", "ro", "mi", "ta", "lo", "san", "ber", "din", "sch", "vel", "mar",
		"ton", "el", "ri", "na", "gus", "hol", "win", "ter", "bro", "ak", "os", "in", "kas", "tra", "la"}
)

// Named info_type entries; the rest of the 113 rows are filler types.
var infoTypeNames = map[int]string{
	1:   "runtimes",
	2:   "color info",
	3:   "genres",
	4:   "languages",
	8:   "countries",
	16:  "release dates",
	98:  "plot",
	99:  "votes",
	100: "rating",
	101: "top 250 rank",
	102: "bottom 10 rank",
	105: "budget",
	107: "gross",
}

// gen carries generation state.
type gen struct {
	rng *rand.Rand
	cfg Config
	db  *DB

	nTitle, nName, nCompany, nKeyword, nChar int
	titleYear                                []int64 // cached for cross-table correlation
	titleKind                                []int64
	titleGenre                               []int     // genre index per movie (hidden correlate)
	titlePop                                 []float64 // popularity weight (Zipf-ish by id)
	companyCountry                           []int     // country index per company
	companyName                              []string
	nameGender                               []string
}

// GenerateIMDB builds a complete synthetic IMDB instance. Generation is
// deterministic in cfg.Seed.
func GenerateIMDB(cfg Config) *DB {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	s := IMDBSchema()
	db := &DB{Schema: s, Tables: make(map[string]*Table, len(s.Tables))}
	for _, t := range s.Tables {
		db.Tables[t.Name] = NewTable(t)
	}
	g := &gen{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg, db: db}

	g.genDimensions()
	g.genCompanies()
	g.genPeople()
	g.genKeywords()
	g.genTitles()
	g.genAkaTitles()
	g.genMovieCompanies()
	g.genMovieInfo()
	g.genMovieInfoIdx()
	g.genMovieKeyword()
	g.genCastInfo()
	g.genAkaNames()
	g.genPersonInfo()
	g.genMovieLink()
	g.genCompleteCast()
	return db
}

func (g *gen) scaled(n int, floor int) int {
	v := int(math.Round(float64(n) * g.cfg.Scale))
	if v < floor {
		v = floor
	}
	return v
}

// zipfPick returns a random index in [0, n) with Zipf-like skew (low indices
// are much more frequent).
func (g *gen) zipfPick(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF sampling of a bounded Pareto keeps this independent of
	// rand.Zipf internals and lets s vary per call site.
	u := g.rng.Float64()
	x := math.Pow(float64(n), 1-s)
	v := math.Pow(u*(1-x)+x, 1/(1-s))
	idx := int(float64(n) / v)
	if idx >= n {
		idx = n - 1
	}
	if idx < 0 {
		idx = 0
	}
	return idx
}

func (g *gen) word(capital bool) string {
	n := 1 + g.rng.Intn(2)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(syllables[g.rng.Intn(len(syllables))])
	}
	w := b.String()
	if capital {
		w = strings.ToUpper(w[:1]) + w[1:]
	}
	return w
}

func (g *gen) phrase(words int) string {
	parts := make([]string, words)
	for i := range parts {
		parts[i] = g.word(true)
	}
	return strings.Join(parts, " ")
}

func (g *gen) genDimensions() {
	fill := func(name string, vals []string) {
		t := g.db.Tables[name]
		for i, v := range vals {
			t.AppendRow(int64(i+1), v)
		}
	}
	fill("kind_type", kindTypes)
	fill("company_type", companyTypes)
	fill("role_type", roleTypes)
	fill("link_type", linkTypes)
	fill("comp_cast_type", compCastTypes)

	it := g.db.Tables["info_type"]
	for i := 1; i <= 113; i++ {
		name, ok := infoTypeNames[i]
		if !ok {
			name = fmt.Sprintf("info type %d", i)
		}
		it.AppendRow(int64(i), name)
	}
}

func (g *gen) genCompanies() {
	g.nCompany = g.scaled(3000, 60)
	t := g.db.Tables["company_name"]
	g.companyCountry = make([]int, g.nCompany)
	g.companyName = make([]string, g.nCompany)
	for i := 0; i < g.nCompany; i++ {
		ci := g.zipfPick(len(countryCodes), 1.4)
		g.companyCountry[i] = ci
		name := g.phrase(1+g.rng.Intn(2)) + " " + companySuffixes[g.rng.Intn(len(companySuffixes))]
		g.companyName[i] = name
		t.AppendRow(int64(i+1), name, countryCodes[ci])
	}
}

func (g *gen) genPeople() {
	g.nName = g.scaled(12000, 200)
	t := g.db.Tables["name"]
	g.nameGender = make([]string, g.nName)
	for i := 0; i < g.nName; i++ {
		gender := "m"
		if g.rng.Float64() < 0.4 {
			gender = "f"
		}
		g.nameGender[i] = gender
		name := g.word(true) + ", " + g.word(true)
		t.AppendRow(int64(i+1), name, gender)
	}
	g.nChar = g.scaled(6000, 100)
	cn := g.db.Tables["char_name"]
	for i := 0; i < g.nChar; i++ {
		cn.AppendRow(int64(i+1), g.phrase(1+g.rng.Intn(2)))
	}
}

func (g *gen) genKeywords() {
	g.nKeyword = g.scaled(2000, 50)
	t := g.db.Tables["keyword"]
	for i := 0; i < g.nKeyword; i++ {
		base := keywordWords[i%len(keywordWords)]
		kw := base
		if i >= len(keywordWords) {
			kw = base + "-" + g.word(false)
		}
		t.AppendRow(int64(i+1), kw)
	}
}

// kindWeights skew title kinds: movies and episodes dominate.
var kindWeights = []float64{0.55, 0.08, 0.07, 0.08, 0.02, 0.04, 0.16}

func (g *gen) pickWeighted(weights []float64) int {
	u := g.rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

func (g *gen) genTitles() {
	g.nTitle = g.scaled(20000, 400)
	t := g.db.Tables["title"]
	g.titleYear = make([]int64, g.nTitle)
	g.titleKind = make([]int64, g.nTitle)
	g.titleGenre = make([]int, g.nTitle)
	g.titlePop = make([]float64, g.nTitle)
	for i := 0; i < g.nTitle; i++ {
		kind := g.pickWeighted(kindWeights) + 1
		// Year skewed to recent decades; episodes even more recent.
		age := int(g.rng.ExpFloat64() * 18)
		if kind == 7 { // episode
			age = int(g.rng.ExpFloat64() * 8)
		}
		year := 2017 - age
		if year < 1880 {
			year = 1880 + g.rng.Intn(30)
		}
		var season, episode int64
		if kind == 7 {
			season = int64(1 + g.zipfPick(25, 1.5))
			episode = int64(1 + g.zipfPick(50, 1.2))
		} else if kind == 2 && g.rng.Float64() < 0.3 {
			season = int64(1 + g.zipfPick(15, 1.5))
		}
		// Genre correlates with kind: video games skew Action/Sci-Fi,
		// episodes skew Drama/Comedy.
		genre := g.zipfPick(len(genres), 1.2)
		if kind == 6 && g.rng.Float64() < 0.5 {
			genre = 3 + g.rng.Intn(2) // Action/Thriller
		}
		if kind == 7 && g.rng.Float64() < 0.5 {
			genre = g.rng.Intn(2) // Drama/Comedy
		}
		g.titleYear[i] = int64(year)
		g.titleKind[i] = int64(kind)
		g.titleGenre[i] = genre
		// Popularity: Zipf in id with noise; older famous movies exist too.
		g.titlePop[i] = 1.0/math.Pow(float64(i+2), 0.8) + g.rng.Float64()*1e-4
		t.AppendRow(int64(i+1), g.phrase(1+g.rng.Intn(3)), int64(kind), int64(year), season, episode)
	}
}

// popularMovie draws a movie row index with Zipf skew so that a few movies
// account for a large share of fact-table rows (the join-skew the paper's
// histogram baselines cannot capture).
func (g *gen) popularMovie() int { return g.zipfPick(g.nTitle, 1.25) }

func (g *gen) genAkaTitles() {
	n := g.scaled(3000, 60)
	t := g.db.Tables["aka_title"]
	for i := 0; i < n; i++ {
		m := g.popularMovie()
		year := g.titleYear[m]
		// Alternate titles carry "(YYYY-MM-DD)" date suffixes — the
		// substring family from Table 3 of the paper.
		month := 1 + g.rng.Intn(12)
		day := 1 + g.rng.Intn(28)
		title := fmt.Sprintf("%s (%d-%02d-%02d)", g.phrase(1+g.rng.Intn(2)), year, month, day)
		t.AppendRow(int64(i+1), int64(m+1), title, year)
	}
}

func (g *gen) genMovieCompanies() {
	n := g.scaled(35000, 700)
	t := g.db.Tables["movie_companies"]
	for i := 0; i < n; i++ {
		m := g.popularMovie()
		c := g.zipfPick(g.nCompany, 1.3)
		year := g.titleYear[m]
		// Company type skewed: production companies and distributors dominate.
		ct := g.pickWeighted([]float64{0.5, 0.35, 0.07, 0.08}) + 1
		note := g.companyNote(ct, year, c)
		t.AppendRow(int64(i+1), int64(m+1), int64(c+1), int64(ct), note)
	}
}

// companyNote generates movie_companies.note with the paper's pattern
// families and a planted year correlation: "(co-production)" is far more
// common for movies after 2000, which a per-column histogram cannot see.
func (g *gen) companyNote(companyType int, year int64, company int) string {
	switch companyType {
	case 1: // production companies
		u := g.rng.Float64()
		coProb := 0.02
		if year >= 2010 {
			coProb = 0.40
		}
		switch {
		case u < coProb:
			return "(co-production)"
		case u < coProb+0.20:
			return "(presents)"
		case u < coProb+0.32:
			return "(as " + g.companyName[company] + ")"
		case u < coProb+0.38:
			return "(in association with)"
		default:
			return ""
		}
	case 2: // distributors: "(YYYY) (CC) (TV)" patterns
		cc := countries[g.companyCountry[company]]
		u := g.rng.Float64()
		y := year + int64(g.rng.Intn(3))
		switch {
		case u < 0.40:
			return fmt.Sprintf("(%d) (%s) (TV)", y, cc)
		case u < 0.70:
			return fmt.Sprintf("(%d) (%s)", y, cc)
		case u < 0.80:
			return fmt.Sprintf("(%d) (worldwide) (TV)", y)
		default:
			return ""
		}
	default:
		if g.rng.Float64() < 0.25 {
			return "(uncredited)"
		}
		return ""
	}
}

func (g *gen) genMovieInfo() {
	n := g.scaled(45000, 900)
	t := g.db.Tables["movie_info"]
	// Info types present in movie_info with their weights.
	infoIDs := []int{3, 4, 8, 1, 16, 2, 105, 107, 98}
	weights := []float64{0.22, 0.15, 0.15, 0.12, 0.14, 0.08, 0.05, 0.04, 0.05}
	for i := 0; i < n; i++ {
		m := g.popularMovie()
		ti := g.pickWeighted(weights)
		infoType := infoIDs[ti]
		var info string
		switch infoType {
		case 3:
			info = genres[g.titleGenre[m]] // consistent genre per movie
		case 4:
			info = languages[g.zipfPick(len(languages), 1.5)]
		case 8:
			info = countries[g.zipfPick(len(countries), 1.4)]
		case 1:
			info = fmt.Sprintf("%d", 60+g.rng.Intn(120))
		case 16:
			info = fmt.Sprintf("%s: %d %s %d", countries[g.zipfPick(len(countries), 1.4)],
				1+g.rng.Intn(28), []string{"January", "March", "June", "September", "December"}[g.rng.Intn(5)],
				g.titleYear[m])
		case 2:
			if g.titleYear[m] < 1960 {
				info = "Black and White"
			} else {
				info = "Color"
			}
		case 105:
			info = fmt.Sprintf("$%d,000,000", 1+g.zipfPick(200, 1.3))
		case 107:
			info = fmt.Sprintf("$%d,481,354", 1+g.zipfPick(400, 1.2))
		default:
			info = g.phrase(3)
		}
		t.AppendRow(int64(i+1), int64(m+1), int64(infoType), info)
	}
}

func (g *gen) genMovieInfoIdx() {
	n := g.scaled(20000, 400)
	t := g.db.Tables["movie_info_idx"]
	id := int64(1)
	// top 250 rank: the most popular movies (ids lowest) with enough age —
	// a planted correlation between rank rows and join fan-out.
	nTop := 250
	if nTop > g.nTitle/10 {
		nTop = g.nTitle / 10
	}
	rank := 1
	for m := 0; m < g.nTitle && rank <= nTop; m++ {
		if g.titleKind[m] != 1 || g.titleYear[m] > 2015 {
			continue
		}
		t.AppendRow(id, int64(m+1), int64(101), fmt.Sprintf("%d", rank))
		id++
		rank++
	}
	// bottom 10 rank.
	for k := 0; k < 10 && k < g.nTitle; k++ {
		m := g.nTitle - 1 - k
		t.AppendRow(id, int64(m+1), int64(102), fmt.Sprintf("%d", k+1))
		id++
	}
	// votes + rating rows for a popularity-skewed subset.
	for int(id) <= n {
		m := g.popularMovie()
		votes := int(2000.0*g.titlePop[m]*float64(g.nTitle)) + g.rng.Intn(100) + 5
		t.AppendRow(id, int64(m+1), int64(99), fmt.Sprintf("%d", votes))
		id++
		if int(id) > n {
			break
		}
		rating := 5.0 + 4.5*g.titlePop[m]*float64(g.nTitle)/float64(g.nTitle) + g.rng.Float64()*2 - 1
		if rating > 9.9 {
			rating = 9.9
		}
		if rating < 1 {
			rating = 1
		}
		t.AppendRow(id, int64(m+1), int64(100), fmt.Sprintf("%.1f", rating))
		id++
	}
}

func (g *gen) genMovieKeyword() {
	n := g.scaled(30000, 600)
	t := g.db.Tables["movie_keyword"]
	for i := 0; i < n; i++ {
		m := g.popularMovie()
		// Keyword correlates with genre: offset the Zipf pick by genre so
		// e.g. Horror movies share keyword clusters.
		k := (g.zipfPick(g.nKeyword, 1.3) + g.titleGenre[m]*7) % g.nKeyword
		t.AppendRow(int64(i+1), int64(m+1), int64(k+1))
	}
}

func (g *gen) genCastInfo() {
	n := g.scaled(60000, 1200)
	t := g.db.Tables["cast_info"]
	for i := 0; i < n; i++ {
		m := g.popularMovie()
		p := g.zipfPick(g.nName, 1.2)
		// Role: actors/actresses dominate; actress correlates with gender.
		role := g.pickWeighted([]float64{0.34, 0.22, 0.08, 0.10, 0.03, 0.04, 0.02, 0.07, 0.04, 0.04, 0.01, 0.01}) + 1
		if role == 2 && g.nameGender[p] == "m" {
			role = 1 // keep actress≈female correlation strong
		}
		nrOrder := int64(1 + g.zipfPick(40, 1.1))
		note := ""
		u := g.rng.Float64()
		voiceProb := 0.05
		if g.titleKind[m] == 6 || g.titleGenre[m] == 7 { // video game or Animation
			voiceProb = 0.55
		}
		switch {
		case u < voiceProb:
			note = "(voice)"
		case u < voiceProb+0.08:
			note = "(uncredited)"
		case u < voiceProb+0.12:
			note = "(as " + g.word(true) + ")"
		case u < voiceProb+0.14:
			note = "(archive footage)"
		}
		t.AppendRow(int64(i+1), int64(p+1), int64(m+1), int64(role), nrOrder, note)
	}
}

func (g *gen) genAkaNames() {
	n := g.scaled(4000, 80)
	t := g.db.Tables["aka_name"]
	for i := 0; i < n; i++ {
		p := g.zipfPick(g.nName, 1.2)
		t.AppendRow(int64(i+1), int64(p+1), g.word(true)+", "+g.word(true))
	}
}

func (g *gen) genPersonInfo() {
	n := g.scaled(15000, 300)
	t := g.db.Tables["person_info"]
	infoIDs := []int{98, 16, 8}
	for i := 0; i < n; i++ {
		p := g.zipfPick(g.nName, 1.2)
		it := infoIDs[g.rng.Intn(len(infoIDs))]
		var info string
		switch it {
		case 98:
			info = g.phrase(4)
		case 16:
			info = fmt.Sprintf("%d-%02d-%02d", 1920+g.rng.Intn(85), 1+g.rng.Intn(12), 1+g.rng.Intn(28))
		default:
			info = countries[g.zipfPick(len(countries), 1.4)]
		}
		t.AppendRow(int64(i+1), int64(p+1), int64(it), info)
	}
}

func (g *gen) genMovieLink() {
	n := g.scaled(1500, 30)
	t := g.db.Tables["movie_link"]
	for i := 0; i < n; i++ {
		m := g.popularMovie()
		m2 := g.popularMovie()
		lt := g.zipfPick(len(linkTypes), 1.3)
		t.AppendRow(int64(i+1), int64(m+1), int64(m2+1), int64(lt+1))
	}
}

func (g *gen) genCompleteCast() {
	n := g.scaled(2000, 40)
	t := g.db.Tables["complete_cast"]
	for i := 0; i < n; i++ {
		m := g.popularMovie()
		subject := int64(1 + g.rng.Intn(2))
		status := int64(3 + g.rng.Intn(2))
		t.AppendRow(int64(i+1), int64(m+1), subject, status)
	}
}
