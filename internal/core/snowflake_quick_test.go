package core

import (
	"fmt"
	"math/rand"
	"testing"

	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/testutil"
)

// randomSnowflakeSeeds is the fixed seed corpus of
// TestRandomSnowflakeQueriesQuick; like randomQuerySeeds it keeps the subtest
// names and any failure the same from run to run.
var randomSnowflakeSeeds = []int64{
	-1174153480967602546, -2970519416753147626, -3615950014828165002, -4032925641585546812,
	-4295086509243742851, -435464460811070224, -4959958281590042052, -6667968785801689958,
	-6728359185904909282, -7311607766764206820, -800821963818889674, 1459164560933384703,
	157857319021963673, 2054013929721775020, 3790159666273941789, 4671512740002428909,
	5974032659206901806, 6738863688350961662, 725379544262850473, 8549639177102388990,
}

// TestRandomSnowflakeQueriesQuick: random queries with predicates, group
// columns, and measures spread across every depth of the 4-hop snowflake
// fixture agree across all variants, worker counts, prefilter budgets, and
// the oracle.
func TestRandomSnowflakeQueriesQuick(t *testing.T) {
	for _, seed := range randomSnowflakeSeeds {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2500) + 200

		q := query.New("rand-snow")
		// Predicates at random depths.
		if rng.Intn(2) == 0 {
			q.Where(expr.StrIn("r_name",
				[]string{"ASIA", "AMERICA", "EUROPE"}[rng.Intn(3)],
				[]string{"AFRICA", "MIDDLE EAST"}[rng.Intn(2)]))
		}
		if rng.Intn(2) == 0 {
			q.Where(expr.IntGe("o_price", int64(rng.Intn(1500))))
		}
		if rng.Intn(2) == 0 {
			q.Where(expr.StrEq("c_mktsegment",
				[]string{"BUILDING", "MACHINERY", "AUTOMOBILE"}[rng.Intn(3)]))
		}
		if rng.Intn(3) == 0 {
			q.Where(expr.FloatLt("l_discount", float64(rng.Intn(10))/100))
		}
		// Group columns at random depths (deduplicated).
		groupPool := []string{"r_name", "n_name", "c_mktsegment", "p_type"}
		perm := rng.Perm(len(groupPool))
		for i := 0; i < rng.Intn(3); i++ {
			q.GroupByCols(groupPool[perm[i]])
		}
		// Measures on the root and mid-chain.
		q.Agg(expr.CountStar("n"))
		switch rng.Intn(3) {
		case 0:
			q.Agg(expr.SumOf(expr.C("l_extendedprice"), "rev"))
		case 1:
			q.Agg(expr.SumOf(expr.C("o_price"), "ototal")) // mid-chain measure
		case 2:
			q.Agg(expr.AvgOf(expr.Mul(expr.C("l_extendedprice"),
				expr.Subtract(expr.K(1), expr.C("l_discount"))), "m"))
		}

		budgets := []int{0, 1, 100} // default, none, stop-at-order
		var targets []testutil.Target
		for _, v := range allVariants() {
			opt := Options{Variant: v, Workers: 1 + rng.Intn(3), PrefilterMaxRows: budgets[rng.Intn(len(budgets))]}
			targets = append(targets, engineTarget(fmt.Sprintf("%s/w%d/budget=%d", v, opt.Workers, opt.PrefilterMaxRows), opt, nil))
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			matrix([]*query.Query{q}, testutil.Snowflake(seed, n, 0), targets...).Run(t)
		})
	}
}
