package server

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// appendRequest is the POST /v1/tables/{table}/append body.
type appendRequest struct {
	// Rows are tuples to insert, each mapping every column of the table to
	// a value (numbers for int/float columns, strings for string columns;
	// foreign-key columns take array indexes of the referenced table).
	Rows []map[string]any `json:"rows"`
}

// appendResponse reports the inserted row indexes (the primary keys) and
// the table's version counters after the batch. DataVersion advances once
// per accepted batch; clients can poll /v1/stats (or re-read it here) to
// confirm read-their-writes: a snapshot taken at or after this DataVersion
// includes the whole batch.
type appendResponse struct {
	Table       string `json:"table"`
	Rows        []int  `json:"rows"`
	Count       int    `json:"count"`
	DataVersion uint64 `json:"data_version"`
}

// handleAppend serves live ingest as one storage.Table.Append call: the
// batch is visible all or nothing. Append converts every value once (JSON
// numbers arrive as json.Number, which storage converts as it converts any
// value) and checks each row's column set and the AIR range of its foreign
// keys; a bad row rejects the whole batch with a 400 naming the row, and
// the table is unchanged. Concurrent queries are unaffected: they read
// pinned snapshots, and the writers' copy-on-write keeps those stable.
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

	rows, err := t.Append(req.Rows)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(errorBody{fmt.Sprintf("append to %s: %v", t.Name, err), t.ColumnNames()})
		return
	}
	s.met.rowsAppended.Add(int64(len(rows)))
	s.met.appendBatches.Inc()
	writeJSON(w, appendResponse{
		Table: t.Name, Rows: rows, Count: len(rows),
		DataVersion: t.DataVersion(),
	})
}
