package astore_test

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"

	"astore"
)

// A tiny star schema served through OpenDB. Foreign keys hold array
// indexes of the dimensions (AIR), so joins are positional lookups and the
// schema behaves as one virtually denormalized universal table.
func ExampleOpenDB() {
	// Dimension: products. The array index is the primary key — product 0
	// is "espresso", product 1 is "latte", and so on. No key column exists.
	product := astore.NewTable("product")
	product.MustAddColumn("p_name", astore.NewStrCol([]string{"espresso", "latte", "flat white", "mocha"}))
	product.MustAddColumn("p_category", astore.NewDictColFrom([]string{"classic", "milk", "milk", "milk"}))

	store := astore.NewTable("store")
	store.MustAddColumn("s_city", astore.NewDictColFrom([]string{"Beijing", "Amsterdam", "Beijing"}))

	sales := astore.NewTable("sales")
	sales.MustAddColumn("fk_product", astore.NewInt32Col([]int32{0, 1, 1, 2, 3, 0, 1, 2}))
	sales.MustAddColumn("fk_store", astore.NewInt32Col([]int32{0, 0, 1, 2, 1, 2, 2, 0}))
	sales.MustAddColumn("units", astore.NewInt64Col([]int64{2, 1, 3, 2, 1, 4, 2, 2}))
	sales.MustAddColumn("price", astore.NewInt64Col([]int64{300, 450, 450, 475, 500, 300, 450, 475}))
	sales.MustAddFK("fk_product", product)
	sales.MustAddFK("fk_store", store)

	// The catalog is the database: OpenDB registers every fact table (here
	// just "sales") and serves queries with snapshot isolation and plan
	// caching.
	catalog := astore.NewDatabase()
	catalog.MustAdd(product)
	catalog.MustAdd(store)
	catalog.MustAdd(sales)
	db, err := astore.OpenDB(catalog, astore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// The predicate on p_category and the grouping column s_city live on
	// different dimensions; the scan reaches both through AIR.
	stmt, err := db.PrepareSQL(`
		SELECT s_city, sum(units * price) AS revenue, count(*) AS sales
		FROM sales, product, store
		WHERE p_category = 'milk'
		GROUP BY s_city
		ORDER BY revenue DESC`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := stmt.Exec(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Format())

	// The builder form of the same query is routed by column resolution;
	// it renders to the same statement, so it reuses the cached plan.
	res, err = db.Run(ctx, astore.NewQuery("milk-revenue-by-city").
		Where(astore.StrEq("p_category", "milk")).
		GroupByCols("s_city").
		Agg(astore.SumOf(astore.Mul(astore.C("units"), astore.C("price")), "revenue"), astore.CountStar("sales")).
		OrderDesc("revenue"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("builder form, first row:", res.Rows[0].Keys[0], res.Rows[0].Aggs[0])

	// Re-executing the prepared statement reuses its compiled plan.
	if _, err := stmt.Exec(ctx); err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("plan cache: %d hits, %d misses\n", st.PlanHits, st.PlanMisses)
	// Output:
	// s_city     revenue  sales
	// ---------  -------  -----
	// Beijing    3250     4
	// Amsterdam  1850     2
	// builder form, first row: Beijing 3250
	// plan cache: 4 hits, 1 misses
}

// Loading CSV extracts that carry natural keys: the loader drops the
// primary keys (the array index takes their place) and rewrites the
// foreign keys to array index references.
func ExampleNewLoader() {
	const cities = "city_id,name,country\n17,Amsterdam,NL\n42,Beijing,CN\n07,Zurich,CH\n"
	const orders = "order_id,city_id,amount\n1001,42,250\n1002,17,120\n1003,42,80\n1004,07,310\n1005,17,95\n"

	catalog := astore.NewDatabase()
	ld := astore.NewLoader(catalog)
	// Dimensions first: their Key columns feed the FK rewriting.
	if _, err := ld.LoadCSV(strings.NewReader(cities), "city", []astore.ColumnSpec{
		{Name: "city_id", Kind: astore.ColKey},
		{Name: "name", Kind: astore.ColString},
		{Name: "country", Kind: astore.ColDict},
	}, true); err != nil {
		log.Fatal(err)
	}
	fact, err := ld.LoadCSV(strings.NewReader(orders), "orders", []astore.ColumnSpec{
		{Kind: astore.ColSkip},
		{Name: "o_city", Kind: astore.ColFK, Ref: "city"},
		{Name: "amount", Kind: astore.ColInt64},
	}, true)
	if err != nil {
		log.Fatal(err)
	}
	if err := catalog.ValidateAIR(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("city_ids 42 17 42 07 17 became array indexes", fact.Column("o_city").(*astore.Int32Col).V)

	db, err := astore.OpenDB(catalog, astore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.RunSQL(context.Background(), `
		SELECT name, country, sum(amount) AS total, count(*) AS orders
		FROM orders, city
		GROUP BY name, country
		ORDER BY total DESC`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Format())
	// Output:
	// city_ids 42 17 42 07 17 became array indexes [1 0 1 2 0]
	// name       country  total  orders
	// ---------  -------  -----  ------
	// Beijing    CN       330    2
	// Zurich     CH       310    1
	// Amsterdam  NL       215    2
}

// A nested query whose join graph is not single rooted (§3 of the paper)
// runs as single-rooted pieces: the inner result feeds the outer scan as
// an IN predicate. The question: revenue by nation and year, for the
// nations whose total revenue is above the average nation's.
func Example_nested() {
	customer := astore.NewTable("customer")
	customer.MustAddColumn("c_nation", astore.NewDictColFrom([]string{"CHINA", "FRANCE", "JAPAN", "PERU", "CHINA"}))
	date := astore.NewTable("date")
	date.MustAddColumn("d_year", astore.NewInt32Col([]int32{1997, 1998}))
	orders := astore.NewTable("orders")
	orders.MustAddColumn("o_cust", astore.NewInt32Col([]int32{0, 1, 2, 3, 4, 0, 2, 1, 4, 3}))
	orders.MustAddColumn("o_date", astore.NewInt32Col([]int32{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}))
	orders.MustAddColumn("o_revenue", astore.NewInt64Col([]int64{40, 10, 30, 5, 20, 50, 35, 15, 10, 5}))
	orders.MustAddFK("o_cust", customer)
	orders.MustAddFK("o_date", date)
	catalog := astore.NewDatabase()
	catalog.MustAdd(customer)
	catalog.MustAdd(date)
	catalog.MustAdd(orders)
	db, err := astore.OpenDB(catalog, astore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Inner piece: revenue per nation.
	inner, err := db.Run(ctx, astore.NewQuery("inner").
		GroupByCols("c_nation").
		Agg(astore.SumOf(astore.C("o_revenue"), "revenue")).
		OrderAsc("c_nation"))
	if err != nil {
		log.Fatal(err)
	}

	// Bridge: the nations above the average.
	var total float64
	for _, row := range inner.Rows {
		total += row.Aggs[0]
	}
	avg := total / float64(len(inner.Rows))
	var hot []string
	for _, row := range inner.Rows {
		if row.Aggs[0] > avg {
			hot = append(hot, row.Keys[0].Str)
		}
	}
	fmt.Printf("average nation revenue %.1f; above it: %v\n", avg, hot)

	// Outer piece: one more scan of the universal table, restricted by the
	// inner result.
	outer, err := db.Run(ctx, astore.NewQuery("outer").
		Where(astore.StrIn("c_nation", hot...)).
		GroupByCols("c_nation", "d_year").
		Agg(astore.SumOf(astore.C("o_revenue"), "revenue"), astore.CountStar("orders")).
		OrderAsc("c_nation").OrderAsc("d_year"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(outer.Format())
	// Output:
	// average nation revenue 55.0; above it: [CHINA JAPAN]
	// c_nation  d_year  revenue  orders
	// --------  ------  -------  ------
	// CHINA     1997    60       2
	// CHINA     1998    60       2
	// JAPAN     1997    30       1
	// JAPAN     1998    35       1
}

// A snowflake chain lineitem -> orders -> customer -> nation -> region
// (§3 of the paper). The optimizer folds the predicate on the deepest
// table down the chain into one predicate vector on the first-level
// dimension, so the four-hop join costs one bit probe per fact row.
func Example_snowflake() {
	region := astore.NewTable("region")
	region.MustAddColumn("r_name", astore.NewDictColFrom([]string{"ASIA", "EUROPE"}))
	nation := astore.NewTable("nation")
	nation.MustAddColumn("n_name", astore.NewDictColFrom([]string{"CHINA", "FRANCE", "JAPAN", "GERMANY"}))
	nation.MustAddColumn("n_region", astore.NewInt32Col([]int32{0, 1, 0, 1}))
	nation.MustAddFK("n_region", region)
	customer := astore.NewTable("customer")
	customer.MustAddColumn("c_nation", astore.NewInt32Col([]int32{0, 1, 2, 3, 2}))
	customer.MustAddFK("c_nation", nation)
	orders := astore.NewTable("orders")
	orders.MustAddColumn("o_cust", astore.NewInt32Col([]int32{0, 1, 2, 3, 4, 0}))
	orders.MustAddFK("o_cust", customer)
	lineitem := astore.NewTable("lineitem")
	lineitem.MustAddColumn("l_order", astore.NewInt32Col([]int32{0, 0, 1, 2, 3, 4, 4, 5}))
	lineitem.MustAddColumn("l_price", astore.NewInt64Col([]int64{100, 20, 70, 30, 90, 15, 25, 60}))
	lineitem.MustAddFK("l_order", orders)
	catalog := astore.NewDatabase()
	for _, t := range []*astore.Table{region, nation, customer, orders, lineitem} {
		catalog.MustAdd(t)
	}
	db, err := astore.OpenDB(catalog, astore.Options{}) // the zero Variant lets the optimizer choose
	if err != nil {
		log.Fatal(err)
	}

	// The reference paths the DB discovered from its fact table.
	fact := db.Facts()[0]
	g := db.Engine(fact).Graph()
	for _, t := range g.Leaves() {
		path, _ := g.PathTo(t)
		line := fact
		for _, s := range path {
			line += " -> " + s.To.Name
		}
		fmt.Println(line)
	}

	stmt, err := db.PrepareSQL(`
		SELECT n_name, sum(l_price) AS revenue, count(*) AS items
		FROM lineitem, orders, customer, nation, region
		WHERE r_name = 'ASIA'
		GROUP BY n_name
		ORDER BY revenue DESC`)
	if err != nil {
		log.Fatal(err)
	}
	var st astore.Stats
	res, err := stmt.ExecStats(context.Background(), &st)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("predicate vectors on:", st.PrefilterTables)
	fmt.Println("aggregation array:", st.UsedArrayAgg)
	fmt.Print(res.Format())
	// Output:
	// lineitem -> orders
	// lineitem -> orders -> customer
	// lineitem -> orders -> customer -> nation
	// lineitem -> orders -> customer -> nation -> region
	// predicate vectors on: [orders]
	// aggregation array: true
	// n_name  revenue  items
	// ------  -------  -----
	// CHINA   180      3
	// JAPAN   70       3
}

// The update machinery of §4.4 under a serving workload: in-place updates,
// appends and lazy deletes run while readers execute against pinned
// copy-on-write snapshots; a deleted slot is reused by the next insert;
// and Consolidate compacts a dimension while rewriting every array index
// reference to it.
func ExampleConsolidate() {
	sensor := astore.NewTable("sensor")
	sensor.MustAddColumn("s_room", astore.NewDictColFrom([]string{"lab", "lab", "office", "office", "roof"}))
	readings := astore.NewTable("readings")
	fk := make([]int32, 1000)
	val := make([]int64, 1000)
	for i := range fk {
		fk[i], val[i] = int32(i%5), int64(20+i%10)
	}
	readings.MustAddColumn("r_sensor", astore.NewInt32Col(fk))
	readings.MustAddColumn("r_celsius", astore.NewInt64Col(val))
	readings.MustAddFK("r_sensor", sensor)
	catalog := astore.NewDatabase()
	catalog.MustAdd(sensor)
	catalog.MustAdd(readings)

	db, err := astore.OpenDB(catalog, astore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	byRoom, err := db.Prepare(astore.NewQuery("avg-by-room").
		GroupByCols("s_room").
		Agg(astore.AvgOf(astore.C("r_celsius"), "avg_c"), astore.CountStar("n")).
		OrderAsc("s_room"))
	if err != nil {
		log.Fatal(err)
	}
	show := func(title string) {
		res, err := byRoom.Exec(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(title)
		fmt.Print(res.Format())
	}
	show("before the writes:")

	// Readers run while the writer mutates; each Exec pins one consistent
	// version and never blocks the writer.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := byRoom.Exec(ctx); err != nil {
				log.Fatal(err)
			}
		}
	}()
	for i := 0; i < 100; i++ {
		if err := readings.Update(i, "r_celsius", int64(30)); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := readings.Insert(map[string]any{"r_sensor": int32(4), "r_celsius": int64(35)}); err != nil {
			log.Fatal(err)
		}
	}
	for i := 900; i < 950; i++ {
		if err := readings.Delete(i); err != nil {
			log.Fatal(err)
		}
	}
	wg.Wait()
	fmt.Println("executions so far:", db.Stats().Execs)

	// The array index is a surrogate key, so a deleted slot may be reused.
	row, err := readings.Insert(map[string]any{"r_sensor": int32(0), "r_celsius": int64(19)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("insert reused slot %d of %d physical rows\n", row, readings.NumRows())
	show("after the writes:")

	// Retire sensor 1: move its readings to sensor 0 in the same room,
	// delete the dimension row, then compact. Sensors 2-4 move down one
	// slot and every FK to sensor is rewritten, so the answer is unchanged.
	rs := readings.Column("r_sensor").(*astore.Int32Col)
	for i, v := range rs.V {
		if v == 1 && !readings.IsDeleted(i) {
			if err := readings.Update(i, "r_sensor", int32(0)); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := sensor.Delete(1); err != nil {
		log.Fatal(err)
	}
	remap, err := astore.Consolidate(catalog, sensor)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remap %v, %d sensors remain\n", remap, sensor.NumRows())
	show("after consolidation:")
	// Output:
	// before the writes:
	// s_room  avg_c  n
	// ------  -----  ---
	// lab     23     400
	// office  25     400
	// roof    26.5   200
	// executions so far: 51
	// insert reused slot 949 of 1050 physical rows
	// after the writes:
	// s_room  avg_c               n
	// ------  ------------------  ---
	// lab     23.724409448818896  381
	// office  25.526315789473685  380
	// roof    28.5625             240
	// remap [0 -1 1 2 3], 4 sensors remain
	// after consolidation:
	// s_room  avg_c               n
	// ------  ------------------  ---
	// lab     23.724409448818896  381
	// office  25.526315789473685  380
	// roof    28.5625             240
}
