package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/testutil"
)

// TestRandomSnowflakeQueriesQuick: random queries with predicates, group
// columns, and measures spread across every depth of the 4-hop snowflake
// fixture agree across all variants, worker counts, prefilter budgets, and
// the oracle.
func TestRandomSnowflakeQueriesQuick(t *testing.T) {
	f := func(seed int64) bool {
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
		return t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			matrix([]*query.Query{q}, testutil.Snowflake(seed, n, 0), targets...).Run(t)
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
