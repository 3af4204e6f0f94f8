package agg

import (
	"encoding/binary"

	"astore/internal/expr"
)

// HashAgg is the hash-table grouping backend: the cells of an aggregation
// array, appended one per group in first-insertion order, and a map from
// each group's key to its cell, its slot. A key packs the group's
// per-column dense ids, 4 little-endian bytes per grouping column; the
// packing stays inside this package.
type HashAgg struct {
	cells
	slots map[string]int32
	keys  []string // slot → key
	key   []byte   // Slot's packing buffer
}

// NewHashAgg returns an empty hash aggregation over the given aggregate
// kinds.
func NewHashAgg(kinds []expr.AggKind) *HashAgg {
	return &HashAgg{cells: newCells(kinds, 0), slots: make(map[string]int32)}
}

// Slot returns the cell of the group with the given per-column dense ids,
// appending an empty cell for a group not seen before. A known group costs
// no allocation.
func (h *HashAgg) Slot(ids []int32) int32 {
	key := h.key[:0]
	for _, id := range ids {
		key = binary.LittleEndian.AppendUint32(key, uint32(id))
	}
	h.key = key
	if s, ok := h.slots[string(key)]; ok {
		return s
	}
	return h.insert(string(key))
}

// slotOf is Slot for a packed key.
func (h *HashAgg) slotOf(key string) int32 {
	if s, ok := h.slots[key]; ok {
		return s
	}
	return h.insert(key)
}

func (h *HashAgg) insert(key string) int32 {
	s := h.grow()
	h.slots[key] = s
	h.keys = append(h.keys, key)
	return s
}

// keyIDs unpacks a key's group ids into ids[:0].
func keyIDs(ids []int32, key string) []int32 {
	ids = ids[:0]
	for k := 0; k+4 <= len(key); k += 4 {
		ids = append(ids, int32(uint32(key[k])|uint32(key[k+1])<<8|uint32(key[k+2])<<16|uint32(key[k+3])<<24))
	}
	return ids
}

// AddRow records one qualifying row in slot s.
func (h *HashAgg) AddRow(s int32) { h.counts[s]++ }

// Merge folds another hash aggregation (same kinds) into h. Used to combine
// per-worker partial results after parallel scans.
func (h *HashAgg) Merge(o *HashAgg) {
	for s, key := range o.keys {
		h.merge(h.slotOf(key), &o.cells, int32(s))
	}
}
