package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"astore/internal/core"
	"astore/internal/db"
	"astore/internal/shard"
)

// Shard serving: a server can act as a shard worker (POST /v1/shard/exec,
// enabled by Config.ShardWorker), as a scatter-gather coordinator
// (Config.Coordinator routes /v1/query executions across shard workers),
// or as both. Worker responses carry the server's instance ID as the
// version domain, so a coordinator never compares data versions across
// distinct worker processes.

// handleShardExec executes one shard-local partial query and returns the
// captured aggregate snapshot in its binary wire form (base64). A pin that
// misses the coordinator's expected data version answers 409 so the
// coordinator can run its bounded re-pin retry.
func (s *Server) handleShardExec(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req shard.WireRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, "shard exec needs sql")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	if err := s.adm.acquire(ctx); err != nil {
		if errors.Is(err, errOverloaded) || errors.Is(err, context.DeadlineExceeded) {
			s.writeOverloaded(w, "shard capacity exhausted")
			return
		}
		writeError(w, statusClientClosed, "client closed request")
		return
	}
	defer s.adm.release()

	p, err := s.db.PrepareSQL(req.SQL)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var st core.Stats
	res, err := p.ExecPartial(ctx, db.PartialRequest{
		Shard:             req.Shard,
		NShards:           req.NShards,
		ExpectDataVersion: req.ExpectDataVersion,
	}, &st)
	if err != nil {
		var vm *db.VersionMismatchError
		switch {
		case errors.As(err, &vm):
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(shard.WireMismatch{
				Error: vm.Error(), Fact: vm.Fact, Want: vm.Want, Got: vm.Got,
			})
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "shard exec exceeded its %v deadline", s.cfg.DefaultTimeout)
		default:
			writeError(w, http.StatusInternalServerError, "shard exec: %v", err)
		}
		return
	}
	// Worker-side accounting: this server's /v1/stats counts the partial
	// execution's scan work (a coordinator folds only into its own DB).
	s.db.AddExecStats(&st)
	data, err := res.Partial.MarshalBinary()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding partial: %v", err)
		return
	}
	writeJSON(w, shard.WireResponse{
		Fact:          res.Fact,
		Domain:        s.instance,
		SchemaVersion: res.SchemaVersion,
		DataVersion:   res.DataVersion,
		Partial:       base64.StdEncoding.EncodeToString(data),
		Stats:         st,
	})
}

// proxyAppend forwards an append body to the tail-owner worker and relays
// its response, so ingest through a coordinator lands on the one shard
// that scans live rows.
func (s *Server) proxyAppend(w http.ResponseWriter, r *http.Request, base string) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		base+"/v1/tables/"+r.PathValue("table")+"/append", bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, "tail-owner shard unreachable: %v", err)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, io.LimitReader(resp.Body, 1<<20))
}
