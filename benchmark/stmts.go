package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"astore/internal/datagen/ssb"
)

// The SSB value domains the ad-hoc templates draw literals from. They mirror
// the benchmark specification (5 regions of 5 nations, 10 cities per nation,
// 5 manufacturers x 5 categories x 40 brands, 1992-1998).
var (
	ssbRegions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	ssbNations = []string{
		"ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE",
		"ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES",
		"CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM",
		"FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM",
		"EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA",
	}
	ssbMonths = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
)

const (
	ssbFirstYear = 1992
	ssbYears     = 7
)

// warmStream is the 13 SSB statements in a seed-shuffled order. Replayed in
// a loop it fits every cache: 13 plans, 13 partials per sealed segment.
func warmStream(seed int64) []string {
	byName := ssb.QueriesSQL()
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	stmts := make([]string, len(names))
	for i, name := range names {
		stmts[i] = oneLine(byName[name])
	}
	return stmts
}

// oneLine collapses a statement's whitespace.
func oneLine(s string) string { return strings.Join(strings.Fields(s), " ") }

// draw is the literal source of one ad-hoc statement.
type draw struct{ rng *rand.Rand }

func (d draw) region() string { return ssbRegions[d.rng.Intn(len(ssbRegions))] }
func (d draw) nation() string { return ssbNations[d.rng.Intn(len(ssbNations))] }
func (d draw) year() int      { return ssbFirstYear + d.rng.Intn(ssbYears) }
func (d draw) discount() int  { return d.rng.Intn(9) }
func (d draw) quantity() int  { return 1 + d.rng.Intn(41) }

// cities is two distinct SSB cities of one nation, as in Q3.3: the nation
// padded or cut to 9 characters plus a digit.
func (d draw) cities() (string, string) {
	padded := d.nation() + "         "
	a := d.rng.Intn(10)
	b := (a + 1 + d.rng.Intn(9)) % 10
	return fmt.Sprintf("%s%d", padded[:9], a), fmt.Sprintf("%s%d", padded[:9], b)
}

// yearRange is a BETWEEN range of at least minSpan years inside 1992-1998.
func (d draw) yearRange(minSpan int) (int, int) {
	span := minSpan + d.rng.Intn(ssbYears-minSpan+1)
	lo := ssbFirstYear + d.rng.Intn(ssbYears-span+1)
	return lo, lo + span - 1
}

// yearPair is two distinct years in ascending order, as in Q4.2.
func (d draw) yearPair() (int, int) {
	a := d.rng.Intn(ssbYears)
	b := (a + 1 + d.rng.Intn(ssbYears-1)) % ssbYears
	if a > b {
		a, b = b, a
	}
	return ssbFirstYear + a, ssbFirstYear + b
}

// mfgrPair is two distinct manufacturers in ascending order, as in Q4.1.
func (d draw) mfgrPair() (int, int) {
	a := d.rng.Intn(5)
	b := (a + 1 + d.rng.Intn(4)) % 5
	if a > b {
		a, b = b, a
	}
	return a + 1, b + 1
}

func (d draw) category() string { return fmt.Sprintf("MFGR#%d%d", 1+d.rng.Intn(5), 1+d.rng.Intn(5)) }

// adhocTemplates are the 13 SSB query shapes with their literals replaced by
// seeded draws. Where the SSB original has too few literal combinations to
// stay distinct over a run (Q2.1: 125, Q4.1: 250) a wide year range is
// added; it leaves the plan shape and nearly all of the selectivity alone.
var adhocTemplates = []func(d draw) string{
	func(d draw) string { // Q1.1
		disc := d.discount()
		return fmt.Sprintf("SELECT sum(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date"+
			" WHERE lo_orderdate = d_datekey AND d_year = %d AND lo_discount BETWEEN %d AND %d AND lo_quantity < %d",
			d.year(), disc, disc+2, 15+d.rng.Intn(26))
	},
	func(d draw) string { // Q1.2
		disc, qty := d.discount(), d.quantity()
		return fmt.Sprintf("SELECT sum(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date"+
			" WHERE lo_orderdate = d_datekey AND d_yearmonthnum = %d AND lo_discount BETWEEN %d AND %d"+
			" AND lo_quantity BETWEEN %d AND %d",
			d.year()*100+1+d.rng.Intn(12), disc, disc+2, qty, qty+9)
	},
	func(d draw) string { // Q1.3
		disc, qty := d.discount(), d.quantity()
		return fmt.Sprintf("SELECT sum(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date"+
			" WHERE lo_orderdate = d_datekey AND d_weeknuminyear = %d AND d_year = %d"+
			" AND lo_discount BETWEEN %d AND %d AND lo_quantity BETWEEN %d AND %d",
			1+d.rng.Intn(52), d.year(), disc, disc+2, qty, qty+9)
	},
	func(d draw) string { // Q2.1
		lo, hi := d.yearRange(5)
		return fmt.Sprintf("SELECT d_year, p_brand1, sum(lo_revenue) AS revenue FROM lineorder, date, part, supplier"+
			" WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey"+
			" AND p_category = '%s' AND s_region = '%s' AND d_year BETWEEN %d AND %d"+
			" GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1",
			d.category(), d.region(), lo, hi)
	},
	func(d draw) string { // Q2.2
		// Brands compare as strings: both bounds need two digits, as in
		// SSB's 'MFGR#2221' .. 'MFGR#2228', to span eight brands.
		cat, b := d.category(), 10+d.rng.Intn(24)
		return fmt.Sprintf("SELECT d_year, p_brand1, sum(lo_revenue) AS revenue FROM lineorder, date, part, supplier"+
			" WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey"+
			" AND p_brand1 BETWEEN '%s%d' AND '%s%d' AND s_region = '%s'"+
			" GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1",
			cat, b, cat, b+7, d.region())
	},
	func(d draw) string { // Q2.3
		return fmt.Sprintf("SELECT d_year, p_brand1, sum(lo_revenue) AS revenue FROM lineorder, date, part, supplier"+
			" WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey"+
			" AND p_brand1 = '%s%d' AND s_region = '%s'"+
			" GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1",
			d.category(), 1+d.rng.Intn(40), d.region())
	},
	func(d draw) string { // Q3.1
		lo, hi := d.yearRange(1)
		return fmt.Sprintf("SELECT c_nation, s_nation, d_year, sum(lo_revenue) AS revenue FROM customer, lineorder, supplier, date"+
			" WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey"+
			" AND c_region = '%s' AND s_region = '%s' AND d_year BETWEEN %d AND %d"+
			" GROUP BY c_nation, s_nation, d_year ORDER BY d_year ASC, revenue DESC",
			d.region(), d.region(), lo, hi)
	},
	func(d draw) string { // Q3.2
		lo, hi := d.yearRange(1)
		return fmt.Sprintf("SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue FROM customer, lineorder, supplier, date"+
			" WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey"+
			" AND c_nation = '%s' AND s_nation = '%s' AND d_year BETWEEN %d AND %d"+
			" GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC",
			d.nation(), d.nation(), lo, hi)
	},
	func(d draw) string { // Q3.3
		c1, c2 := d.cities()
		s1, s2 := d.cities()
		lo, hi := d.yearRange(1)
		return fmt.Sprintf("SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue FROM customer, lineorder, supplier, date"+
			" WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey"+
			" AND c_city IN ('%s', '%s') AND s_city IN ('%s', '%s') AND d_year BETWEEN %d AND %d"+
			" GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC",
			c1, c2, s1, s2, lo, hi)
	},
	func(d draw) string { // Q3.4
		c1, c2 := d.cities()
		s1, s2 := d.cities()
		return fmt.Sprintf("SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue FROM customer, lineorder, supplier, date"+
			" WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey"+
			" AND c_city IN ('%s', '%s') AND s_city IN ('%s', '%s') AND d_yearmonth = '%s%d'"+
			" GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC",
			c1, c2, s1, s2, ssbMonths[d.rng.Intn(12)], d.year())
	},
	func(d draw) string { // Q4.1
		m1, m2 := d.mfgrPair()
		lo, hi := d.yearRange(5)
		return fmt.Sprintf("SELECT d_year, c_nation, sum(lo_revenue - lo_supplycost) AS profit FROM date, customer, supplier, part, lineorder"+
			" WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey AND lo_orderdate = d_datekey"+
			" AND c_region = '%s' AND s_region = '%s' AND p_mfgr IN ('MFGR#%d', 'MFGR#%d') AND d_year BETWEEN %d AND %d"+
			" GROUP BY d_year, c_nation ORDER BY d_year, c_nation",
			d.region(), d.region(), m1, m2, lo, hi)
	},
	func(d draw) string { // Q4.2
		m1, m2 := d.mfgrPair()
		y1, y2 := d.yearPair()
		return fmt.Sprintf("SELECT d_year, s_nation, p_category, sum(lo_revenue - lo_supplycost) AS profit FROM date, customer, supplier, part, lineorder"+
			" WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey AND lo_orderdate = d_datekey"+
			" AND c_region = '%s' AND s_region = '%s' AND d_year IN (%d, %d) AND p_mfgr IN ('MFGR#%d', 'MFGR#%d')"+
			" GROUP BY d_year, s_nation, p_category ORDER BY d_year, s_nation, p_category",
			d.region(), d.region(), y1, y2, m1, m2)
	},
	func(d draw) string { // Q4.3
		y1, y2 := d.yearPair()
		return fmt.Sprintf("SELECT d_year, s_city, p_brand1, sum(lo_revenue - lo_supplycost) AS profit FROM date, customer, supplier, part, lineorder"+
			" WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey AND lo_orderdate = d_datekey"+
			" AND c_region = '%s' AND s_nation = '%s' AND d_year IN (%d, %d) AND p_category = '%s'"+
			" GROUP BY d_year, s_city, p_brand1 ORDER BY d_year, s_city, p_brand1",
			d.region(), d.nation(), y1, y2, d.category())
	},
}

// adhocStream is n statements: the 13 templates in fixed rotation, so every
// seed sends the same mix of query shapes, with literals drawn from the seed
// and redrawn on a repeat, so the stream outgrows the plan cache and the
// aggregate cache by construction.
func adhocStream(seed int64, n int) []string {
	d := draw{rand.New(rand.NewSource(seed))}
	seen := make(map[string]bool, n)
	stmts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		tmpl := adhocTemplates[i%len(adhocTemplates)]
		s := tmpl(d)
		// A template's literal space is several times its share of the
		// stream, so a few redraws always find an unseen statement; the
		// cap only keeps a degenerate n from spinning.
		for tries := 0; seen[s] && tries < 64; tries++ {
			s = tmpl(d)
		}
		seen[s] = true
		stmts = append(stmts, s)
	}
	return stmts
}

// appendBatch is one pre-rendered append request and what it adds to the
// fact table.
type appendBatch struct {
	body    []byte
	rows    []map[string]any
	revenue int64
}

// appendPool renders count distinct batches of rowsPer lineorder rows drawn
// from the seed with the generator's own value rules; the writer cycles
// through them. Foreign keys are array indexes inside the dimension sizes
// at scale factor sf.
func appendPool(seed int64, sf float64, count, rowsPer int) ([]appendBatch, error) {
	_, nCust, nSupp, nPart, nDate := ssb.Sizes(sf)
	rng := rand.New(rand.NewSource(seed))
	pool := make([]appendBatch, count)
	for b := range pool {
		rows := make([]map[string]any, rowsPer)
		var revenue int64
		for i := range rows {
			qty := int64(rng.Intn(50) + 1)
			disc := int64(rng.Intn(11))
			price := int64(rng.Intn(100_000) + 900)
			ext := qty * price
			rev := ext * (100 - disc) / 100
			revenue += rev
			rows[i] = map[string]any{
				"lo_custkey":       int64(rng.Intn(nCust)),
				"lo_suppkey":       int64(rng.Intn(nSupp)),
				"lo_partkey":       int64(rng.Intn(nPart)),
				"lo_orderdate":     int64(rng.Intn(nDate)),
				"lo_quantity":      qty,
				"lo_discount":      disc,
				"lo_extendedprice": ext,
				"lo_ordtotalprice": ext,
				"lo_revenue":       rev,
				"lo_supplycost":    price * 6 / 10,
				"lo_tax":           int64(rng.Intn(9)),
			}
		}
		body, err := json.Marshal(map[string]any{"rows": rows})
		if err != nil {
			return nil, fmt.Errorf("render append batch: %w", err)
		}
		pool[b] = appendBatch{body: body, rows: rows, revenue: revenue}
	}
	return pool, nil
}
