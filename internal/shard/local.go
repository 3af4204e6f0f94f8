package shard

import (
	"context"
	"fmt"
	"sync/atomic"

	"astore/internal/core"
	"astore/internal/db"
	"astore/internal/storage"
)

// localDomain numbers NewLocalWorkers calls so distinct worker sets get
// distinct version domains.
var localDomain atomic.Int64

// LocalWorker executes partial queries in-process against a db.DB,
// restricted to the canonical segment slice of (shard, nshards). All
// workers of one NewLocalWorkers call share the DB — and therefore its
// plan cache and per-segment aggregate cache — and one version domain.
type LocalWorker struct {
	d              *db.DB
	name           string
	domain         string
	shard, nshards int

	// Select, when non-nil, overrides the canonical partition (tests).
	Select func(i int, sv *storage.SegView) bool
}

// NewLocalWorkers builds n in-process workers over one DB, worker i owning
// the canonical segment slice (i, n).
func NewLocalWorkers(d *db.DB, n int) []Worker {
	if n < 1 {
		n = 1
	}
	dom := fmt.Sprintf("local-%d", localDomain.Add(1))
	ws := make([]Worker, n)
	for i := 0; i < n; i++ {
		ws[i] = &LocalWorker{
			d:       d,
			name:    fmt.Sprintf("local%d", i),
			domain:  dom,
			shard:   i,
			nshards: n,
		}
	}
	return ws
}

// Name implements Worker.
func (w *LocalWorker) Name() string { return w.name }

// Exec implements Worker: prepare (a parse plus a hit in the DB's shared
// plan cache, like the HTTP worker handler), pin, verify the expectation,
// scan the shard's segment slice, capture.
func (w *LocalWorker) Exec(ctx context.Context, req ExecRequest) (*ExecResult, error) {
	p, err := w.d.PrepareSQL(req.SQL)
	if err != nil {
		return nil, err
	}
	var st core.Stats
	res, err := p.ExecPartial(ctx, db.PartialRequest{
		Shard:             w.shard,
		NShards:           w.nshards,
		Select:            w.Select,
		ExpectDataVersion: req.ExpectDataVersion,
	}, &st)
	if err != nil {
		return nil, err
	}
	return &ExecResult{
		Fact:          res.Fact,
		Domain:        w.domain,
		SchemaVersion: res.SchemaVersion,
		DataVersion:   res.DataVersion,
		Partial:       res.Partial,
		Stats:         st,
	}, nil
}

// Ping implements Worker; an in-process worker is always reachable.
func (w *LocalWorker) Ping(ctx context.Context) error { return ctx.Err() }
