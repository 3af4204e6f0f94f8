package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"astore/internal/storage"
)

// appendRequest is the POST /v1/tables/{table}/append body.
type appendRequest struct {
	// Rows are tuples to insert, each mapping every column of the table to
	// a value (numbers for int/float columns, strings for string columns;
	// foreign-key columns take array indexes of the referenced table).
	Rows []map[string]any `json:"rows"`
}

// appendResponse reports the inserted row indexes (the primary keys) and
// the table's version counters after the batch. DataVersion advances on
// every data mutation; clients can poll /v1/stats (or re-read it here) to
// confirm read-their-writes: a snapshot taken at or after this DataVersion
// includes the batch.
type appendResponse struct {
	Table       string   `json:"table"`
	Rows        []int    `json:"rows"`
	Count       int      `json:"count"`
	DataVersion uint64   `json:"data_version"`
	Columns     []string `json:"columns,omitempty"` // on error: expected columns
}

// handleAppend serves live ingest. Insert validates each row — its column
// set, its values (JSON numbers arrive as json.Number, which storage
// converts as it converts any value) and the AIR range of its foreign keys —
// before inserting it; a bad row aborts the batch with a 400 naming the
// row, with every prior row already inserted (inserts are per-row atomic,
// there is no multi-row transaction).
// Concurrent queries are unaffected: they read pinned snapshots, and the
// writers' copy-on-write keeps those stable.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("table")
	// A coordinator over remote workers owns no tail: forward ingest to the
	// tail-owner shard (with in-process workers the local append IS the
	// tail-owner append, since the workers share this DB).
	if c := s.cfg.Coordinator; c != nil {
		if base, ok := c.AppendTarget(); ok {
			s.proxyAppend(w, r, base)
			return
		}
	}
	t := s.db.Catalog().Table(name)
	if t == nil {
		writeError(w, http.StatusNotFound, "no table %q", name)
		return
	}

	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	dec.DisallowUnknownFields()
	var req appendRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, "no rows to append")
		return
	}

	inserted := make([]int, 0, len(req.Rows))
	for i, row := range req.Rows {
		idx, err := t.Insert(row)
		if err != nil {
			s.appendError(w, t, inserted, fmt.Errorf("row %d: %w", i, err))
			return
		}
		inserted = append(inserted, idx)
	}
	s.met.rowsAppended.Add(int64(len(inserted)))
	s.met.appendBatches.Inc()
	writeJSON(w, appendResponse{
		Table: t.Name, Rows: inserted, Count: len(inserted),
		DataVersion: t.DataVersion(),
	})
}

// appendError reports a failed batch, naming the expected columns and how
// many rows of the batch had already been inserted.
func (s *Server) appendError(w http.ResponseWriter, t *storage.Table, inserted []int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	_ = json.NewEncoder(w).Encode(struct {
		Error    string   `json:"error"`
		Inserted int      `json:"inserted"`
		Columns  []string `json:"columns"`
	}{
		Error:    fmt.Sprintf("append to %s: %v", t.Name, err),
		Inserted: len(inserted),
		Columns:  t.ColumnNames(),
	})
}
