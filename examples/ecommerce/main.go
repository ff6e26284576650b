// Command ecommerce builds a deeper pipeline in the latency middle ground
// the paper targets (§1, §6.3): a three-level DT graph over orders —
// enrichment join, hourly revenue rollup, and a top-seller window query —
// with mixed target lags, a DOWNSTREAM intermediate, warehouse billing,
// and lag observability.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"dyntables"
)

func main() {
	eng := dyntables.New()
	defer func() {
		if err := eng.Close(); err != nil {
			log.Fatal(err)
		}
	}()
	sess := eng.NewSession()
	ctx := context.Background()

	sess.MustExec(`CREATE WAREHOUSE etl_wh WAREHOUSE_SIZE = 'SMALL' AUTO_SUSPEND = 120`)
	sess.MustExec(`CREATE TABLE products (id INT, name TEXT, price INT)`)
	sess.MustExec(`CREATE TABLE orders (id INT, product_id INT, quantity INT, status TEXT, ts TIMESTAMP)`)

	sess.MustExec(`INSERT INTO products VALUES
		(1, 'keyboard', 80), (2, 'mouse', 40), (3, 'monitor', 300), (4, 'dock', 150)`)

	// Level 1: enriched orders (DOWNSTREAM: refreshes when consumers need it).
	sess.MustExec(`
		CREATE DYNAMIC TABLE enriched_orders
		TARGET_LAG = DOWNSTREAM
		WAREHOUSE = etl_wh
		AS SELECT o.id, o.product_id, p.name, o.quantity * p.price AS revenue, o.ts
		FROM orders o
		JOIN products p ON o.product_id = p.id
		WHERE o.status = 'COMPLETE'`)

	// Level 2: hourly revenue (5-minute lag: the batch/stream middle ground).
	sess.MustExec(`
		CREATE DYNAMIC TABLE hourly_revenue
		TARGET_LAG = '5 minutes'
		WAREHOUSE = etl_wh
		AS SELECT date_trunc(hour, ts) AS hour, product_id, name,
		          sum(revenue) AS revenue, count(*) AS orders
		FROM enriched_orders
		GROUP BY date_trunc(hour, ts), product_id, name`)

	// Level 3: per-hour product ranking via a partitioned window function.
	sess.MustExec(`
		CREATE DYNAMIC TABLE product_ranks
		TARGET_LAG = '10 minutes'
		WAREHOUSE = etl_wh
		AS SELECT hour, name, revenue,
		          rank() OVER (PARTITION BY hour ORDER BY revenue DESC) AS rnk
		FROM hourly_revenue`)

	// Simulate a morning of order traffic through a prepared statement
	// with bind parameters (parse once, execute per order).
	ins, err := sess.Prepare(`INSERT INTO orders VALUES (?, ?, ?, ?, ?)`)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	id := 1
	start := eng.Now()
	for eng.Now().Sub(start) < 3*time.Hour {
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			status := "COMPLETE"
			if rng.Intn(5) == 0 {
				status = "PENDING"
			}
			if _, err := ins.ExecContext(ctx, id, 1+rng.Intn(4), 1+rng.Intn(3),
				status, eng.Now().Format("2006-01-02 15:04:05")); err != nil {
				log.Fatal(err)
			}
			id++
		}
		eng.AdvanceTime(7 * time.Minute)
		if err := eng.RunScheduler(); err != nil {
			log.Fatal(err)
		}
	}

	// A late correction: an order flips from PENDING to COMPLETE, and the
	// whole pipeline repairs incrementally.
	sess.MustExec(`UPDATE orders SET status = 'COMPLETE' WHERE status = 'PENDING'`)
	eng.AdvanceTime(10 * time.Minute)
	if err := eng.RunScheduler(); err != nil {
		log.Fatal(err)
	}

	rows, err := sess.QueryContext(ctx,
		`SELECT hour, name, revenue FROM product_ranks WHERE rnk = :r ORDER BY hour`,
		dyntables.Named("r", 1))
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	fmt.Println("top product per hour:")
	for rows.Next() {
		row := rows.Row()
		fmt.Printf("  %-22s %-10s revenue=%s\n", row[0], row[1], row[2])
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\npipeline health:")
	for _, name := range []string{"enriched_orders", "hourly_revenue", "product_ranks"} {
		st, err := sess.Describe(name)
		if err != nil {
			log.Fatal(err)
		}
		actions := map[string]int{}
		for _, rec := range st.History {
			actions[rec.Action.String()]++
		}
		fmt.Printf("  %-16s mode=%-11s lag=%-8s refreshes=%v\n",
			name, st.EffectiveMode, st.Lag.Truncate(time.Second), actions)
		if err := eng.CheckDVS(name); err != nil {
			log.Fatalf("DVS violated for %s: %v", name, err)
		}
	}

	wh, err := eng.Warehouse("etl_wh")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwarehouse etl_wh: billed=%s credits=%.4f resumes=%d jobs=%d\n",
		wh.BilledTime().Truncate(time.Second), wh.Credits(), wh.Resumes(), wh.JobCount())
}
