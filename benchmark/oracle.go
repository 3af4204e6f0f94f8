package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"astore/internal/baseline"
	"astore/internal/datagen/ssb"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
)

// oracle answers statements with internal/baseline's hash-join engine over
// data generated in the harness with the server's scale factor and seed. It
// shares no execution code with the AIR engine under test.
type oracle struct {
	data *ssb.Data
}

func newOracle(cfg config) *oracle {
	return &oracle{data: ssb.Generate(ssb.Config{SF: cfg.sf, Seed: cfg.dataSeed})}
}

// expect returns the statement's answer as a sorted multiset of rows.
func (o *oracle) expect(stmt string) ([]string, error) {
	q, err := sql.Parse(stmt)
	if err != nil {
		return nil, fmt.Errorf("oracle parse: %w", err)
	}
	res, err := baseline.NewHashJoinEngine(o.data.Lineorder).Run(q)
	if err != nil {
		return nil, fmt.Errorf("oracle run: %w", err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, 0, len(r.Keys)+len(r.Aggs))
		for _, k := range r.Keys {
			cells = append(cells, canonValue(k))
		}
		for _, a := range r.Aggs {
			cells = append(cells, canonNum(a))
		}
		rows[i] = strings.Join(cells, "\x1f")
	}
	sort.Strings(rows)
	return rows, nil
}

func canonValue(v query.Value) string {
	if v.IsNum {
		return canonNum(v.Num)
	}
	return "s:" + v.Str
}

func canonNum(f float64) string { return "n:" + strconv.FormatFloat(f, 'g', -1, 64) }

// canonicalAnswer parses the rows part of a /v1/query response into the same
// sorted multiset form.
func canonicalAnswer(rowsPart []byte) ([]string, error) {
	dec := json.NewDecoder(bytes.NewReader(append(append([]byte(nil), rowsPart...), '}')))
	dec.UseNumber()
	var ans struct {
		Rows [][]any `json:"rows"`
	}
	if err := dec.Decode(&ans); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	rows := make([]string, len(ans.Rows))
	for i, r := range ans.Rows {
		cells := make([]string, len(r))
		for j, cell := range r {
			switch x := cell.(type) {
			case json.Number:
				f, err := x.Float64()
				if err != nil {
					return nil, fmt.Errorf("answer cell %q: %w", x, err)
				}
				cells[j] = canonNum(f)
			case string:
				cells[j] = "s:" + x
			default:
				return nil, fmt.Errorf("answer cell of type %T", cell)
			}
		}
		rows[i] = strings.Join(cells, "\x1f")
	}
	sort.Strings(rows)
	return rows, nil
}

// check compares one server answer with the oracle's. The error names the
// first difference.
func (o *oracle) check(stmt string, rowsPart []byte) error {
	want, err := o.expect(stmt)
	if err != nil {
		return err
	}
	got, err := canonicalAnswer(rowsPart)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, oracle has %d: %s", len(got), len(want), stmt)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("row %q, oracle has %q: %s", got[i], want[i], stmt)
		}
	}
	return nil
}

// apply appends the rows of acknowledged batches to the oracle's own fact
// table, so it answers over base data plus everything the server accepted.
func (o *oracle) apply(batches []appendBatch) error {
	for _, b := range batches {
		for _, row := range b.rows {
			if _, err := o.data.Lineorder.Insert(row); err != nil {
				return fmt.Errorf("oracle insert: %w", err)
			}
		}
	}
	return nil
}

// totals is the fact table's row count and revenue sum, read straight off the
// column arrays.
func (o *oracle) totals() (rows, revenue int64) {
	col := o.data.Lineorder.Column("lo_revenue")
	n := o.data.Lineorder.NumRows()
	for i := 0; i < n; i++ {
		v, _ := storage.Int64At(col, i) // lo_revenue is an integer column
		revenue += v
	}
	return int64(n), revenue
}
