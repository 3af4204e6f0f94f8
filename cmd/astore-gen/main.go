// Command astore-gen generates a benchmark dataset in memory, validates its
// array-index-reference integrity, and prints per-table statistics:
//
//	astore-gen -schema ssb -sf 0.1
//	astore-gen -schema tpch -sf 0.01
//	astore-gen -schema tpcds -sf 0.05
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/datagen/tpcds"
	"astore/internal/datagen/tpch"
	"astore/internal/db"
	"astore/internal/storage"
)

func main() {
	var (
		schema   = flag.String("schema", "ssb", "dataset: ssb, tpch, or tpcds")
		sf       = flag.Float64("sf", 0.05, "scale factor")
		seed     = flag.Int64("seed", 1, "generation seed")
		save     = flag.String("save", "", "write the generated database image to this file")
		load     = flag.String("load", "", "load a database image instead of generating")
		segRows  = flag.Int("segment-rows", 0, "seal fact-table segments at this many rows before saving (0 = never seal)")
		sortKeys = flag.String("sort-keys", "", "comma-separated fact columns to cluster by before saving (keys a table lacks are ignored)")
		encode   = flag.Bool("encode-sealed", false, "compress sealed-segment chunks (RLE/FoR) before saving")
	)
	flag.Parse()

	t0 := time.Now()
	var catalog *storage.Database
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "astore-gen:", err)
			os.Exit(1)
		}
		catalog, err = storage.LoadDatabase(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "astore-gen:", err)
			os.Exit(1)
		}
		*schema = "loaded:" + *load
	} else {
		switch *schema {
		case "ssb":
			catalog = ssb.Generate(ssb.Config{SF: *sf, Seed: *seed}).DB
		case "tpch":
			catalog = tpch.Generate(tpch.Config{SF: *sf, Seed: *seed}).DB
		case "tpcds":
			catalog = tpcds.Generate(tpcds.Config{SF: *sf, Seed: *seed}).DB
		default:
			fmt.Fprintf(os.Stderr, "astore-gen: unknown schema %q\n", *schema)
			os.Exit(2)
		}
	}
	genTime := time.Since(t0)

	// Register the catalog with the serving layer, which also lays the fact
	// tables out as the flags ask: this verifies each fact table's reachable
	// schema builds into a valid join tree, and a saved image carries the
	// segment manifests, so a serving process re-opens with sealed segments
	// and zone maps already in place.
	opt := core.Options{SegmentRows: *segRows, SealedEncodings: *encode}
	for _, k := range strings.Split(*sortKeys, ",") {
		if k = strings.TrimSpace(k); k != "" {
			opt.SortKeys = append(opt.SortKeys, k)
		}
	}
	d, err := db.Open(catalog, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "astore-gen: serving registration failed: %v\n", err)
		os.Exit(1)
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintln(os.Stderr, "astore-gen:", err)
			os.Exit(1)
		}
		if err := catalog.Save(f); err != nil {
			fmt.Fprintln(os.Stderr, "astore-gen:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "astore-gen:", err)
			os.Exit(1)
		}
		if fi, err := os.Stat(*save); err == nil {
			fmt.Printf("saved image to %s (%d bytes)\n", *save, fi.Size())
		}
	}

	if err := catalog.ValidateAIR(); err != nil {
		fmt.Fprintf(os.Stderr, "astore-gen: AIR validation failed: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%s SF=%g generated in %v; AIR integrity OK\n\n", *schema, *sf, genTime.Round(time.Millisecond))
	fmt.Printf("%-24s %12s %8s %12s  %s\n", "table", "rows", "cols", "bytes", "foreign keys")
	var totalRows, totalBytes int64
	for _, t := range catalog.Tables() {
		fks := ""
		for col, ref := range t.FKs() {
			if fks != "" {
				fks += ", "
			}
			fks += col + "->" + ref.Name
		}
		fmt.Printf("%-24s %12d %8d %12d  %s\n",
			t.Name, t.NumRows(), len(t.ColumnNames()), t.MemBytes(), fks)
		totalRows += int64(t.NumRows())
		totalBytes += t.MemBytes()
	}
	fmt.Printf("%-24s %12d %8s %12d\n", "TOTAL", totalRows, "", totalBytes)

	fmt.Println()
	for _, fact := range d.Facts() {
		g := d.Engine(fact).Graph()
		fmt.Printf("fact table %q serves %d reachable dimension table(s)\n",
			fact, len(g.Leaves()))
	}
}
