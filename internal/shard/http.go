package shard

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"astore/internal/agg"
	"astore/internal/core"
	"astore/internal/db"
)

// WireRequest is the POST /v1/shard/exec body. Shard/NShards select the
// canonical segment slice on the worker (0/1 is the whole dataset, the
// one-shard case). ExpectDataVersion 0 pins optimistically.
type WireRequest struct {
	SQL               string `json:"sql"`
	Shard             int    `json:"shard"`
	NShards           int    `json:"nshards"`
	ExpectDataVersion uint64 `json:"expect_data_version,omitempty"`
}

// WireResponse is the worker's reply: snapshot identity plus the captured
// partial in its binary wire encoding (base64 in JSON).
type WireResponse struct {
	Fact          string     `json:"fact"`
	Domain        string     `json:"domain"`
	SchemaVersion uint64     `json:"schema_version"`
	DataVersion   uint64     `json:"data_version"`
	Partial       string     `json:"partial"`
	Stats         core.Stats `json:"stats"`
}

// WireMismatch is the 409 body when the worker's pin disagrees with the
// coordinator's expectation.
type WireMismatch struct {
	Error string `json:"error"`
	Fact  string `json:"fact"`
	Want  uint64 `json:"want"`
	Got   uint64 `json:"got"`
}

// ErrReplyTooLarge reports a 200 reply from a worker whose body exceeds the
// coordinator's buffer limit; the reply is discarded, not truncated.
var ErrReplyTooLarge = errors.New("shard: worker reply too large")

// maxErrorReplyBytes bounds how much of a non-200 body is read.
const maxErrorReplyBytes = 64 << 10

// HTTPWorker executes shard requests against a remote astore-serve worker
// (`astore-serve -worker`). Transient transport failures (network errors
// and 502/503/504) are retried once after a short backoff; a 409 decodes
// into *db.VersionMismatchError so the coordinator's re-pin logic treats
// remote and local workers identically.
type HTTPWorker struct {
	name string
	base string
	hc   *http.Client

	// shard/nshards are sent with every request: every worker holds the
	// full dataset and scans only its canonical segment slice.
	shard, nshards int

	// maxReply bounds a 200 /v1/shard/exec body (a base64 partial plus
	// stats): 1 GiB; tests lower it.
	maxReply int64

	// Backoff before the single transient retry.
	Backoff time.Duration
}

// NewHTTPWorker builds a client for the worker at a base URL like
// "http://host:port" (a bare "host:port" gets the scheme prefixed) that
// owns the canonical segment slice (shard, nshards) of the dataset every
// worker holds — its position in the coordinator's worker list.
func NewHTTPWorker(base string, shard, nshards int, timeout time.Duration) *HTTPWorker {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &HTTPWorker{
		name:     strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://"),
		base:     base,
		hc:       &http.Client{Timeout: timeout},
		shard:    shard,
		nshards:  nshards,
		maxReply: 1 << 30,
		Backoff:  50 * time.Millisecond,
	}
}

// Name implements Worker.
func (w *HTTPWorker) Name() string { return w.name }

// BaseURL returns the worker's base URL (scheme://host:port).
func (w *HTTPWorker) BaseURL() string { return w.base }

// Exec implements Worker.
func (w *HTTPWorker) Exec(ctx context.Context, req ExecRequest) (*ExecResult, error) {
	body, err := json.Marshal(WireRequest{
		SQL:               req.SQL,
		Shard:             w.shard,
		NShards:           w.nshards,
		ExpectDataVersion: req.ExpectDataVersion,
	})
	if err != nil {
		return nil, err
	}
	resp, err := w.post(ctx, w.base+"/v1/shard/exec", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// The status decides how much of the body is worth buffering: only a
	// 200 carries a partial; an error reply is a line of text or a small
	// JSON object, whatever a misbehaving worker actually sends.
	if resp.StatusCode != http.StatusOK {
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxErrorReplyBytes))
		if err != nil {
			return nil, fmt.Errorf("reading %s response: %w", resp.Status, err)
		}
		if resp.StatusCode == http.StatusConflict {
			var m WireMismatch
			if err := json.Unmarshal(data, &m); err != nil {
				return nil, fmt.Errorf("shard: version conflict with undecodable body: %v", err)
			}
			return nil, &db.VersionMismatchError{Fact: m.Fact, Want: m.Want, Got: m.Got}
		}
		return nil, fmt.Errorf("shard: worker returned %s: %s", resp.Status, firstLine(data))
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, w.maxReply+1))
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if int64(len(data)) > w.maxReply {
		return nil, fmt.Errorf("%w (limit %d bytes)", ErrReplyTooLarge, w.maxReply)
	}
	var wr WireResponse
	if err := json.Unmarshal(data, &wr); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	raw, err := base64.StdEncoding.DecodeString(wr.Partial)
	if err != nil {
		return nil, fmt.Errorf("decoding partial: %w", err)
	}
	part, err := agg.UnmarshalPartial(raw)
	if err != nil {
		return nil, err
	}
	return &ExecResult{
		Fact:          wr.Fact,
		Domain:        wr.Domain,
		SchemaVersion: wr.SchemaVersion,
		DataVersion:   wr.DataVersion,
		Partial:       part,
		Stats:         wr.Stats,
	}, nil
}

// post sends the request, retrying once after Backoff on transient
// failures (network errors and gateway-ish 5xx).
func (w *HTTPWorker) post(ctx context.Context, url string, body []byte) (*http.Response, error) {
	send := func() (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return w.hc.Do(req)
	}
	resp, err := send()
	if !transient(resp, err) {
		return resp, err
	}
	if resp != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(w.Backoff):
	}
	return send()
}

// transient reports whether a transport outcome is worth one retry: the
// connection failed outright (unless the caller's context ended) or the
// worker answered with an overload/gateway status.
func transient(resp *http.Response, err error) bool {
	if err != nil {
		return !strings.Contains(err.Error(), "context canceled") &&
			!strings.Contains(err.Error(), "deadline exceeded")
	}
	switch resp.StatusCode {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Ping implements Worker via the worker's liveness endpoint.
func (w *HTTPWorker) Ping(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard: healthz returned %s", resp.Status)
	}
	return nil
}

// firstLine clips a response body for error messages.
func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
