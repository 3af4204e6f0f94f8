package storage

// Int32Col mirrors the engine's chunk shape: a named *Col struct whose
// V field is the shared backing slice of a sealed segment.
type Int32Col struct{ V []int32 }

// DictCol carries its codes in Codes.
type DictCol struct {
	Codes []int32
	Dict  []string
}

// Column stands in for the engine's chunk interface.
type Column interface{ Len() int }

func (c *Int32Col) Len() int { return len(c.V) }

// RLECol mirrors a run-length chunk: cumulative run ends in End, one plain
// value per run in the Vals column — both shared, both immutable once
// sealed.
type RLECol struct {
	End  []int32
	Vals Column
}

// FoRCol mirrors a bit-packed chunk: packed words in Words.
type FoRCol struct {
	Typ   uint8
	Base  int64
	Width uint8
	N     int
	Words []uint64
}

// notAChunk has a V field but is not a *Col type: writes are fine.
type notAChunk struct{ V []int32 }

func patchInPlace(c *Int32Col, i int) {
	c.V[i] = 0 // want `write into sealed chunk slice c\.V`
}

func regrow(c *Int32Col, x int32) {
	c.V = append(c.V, x) // want `reassignment of chunk slice c\.V`
}

func bulkOverwrite(d *DictCol, src []int32) {
	copy(d.Codes, src) // want `copy into sealed chunk slice d\.Codes`
}

func bump(c *Int32Col, i int) {
	c.V[i]++ // want `write into sealed chunk slice c\.V`
}

// cloneChunk is an audited construction site: the directive allowlists
// it inside the storage package.
//
//astore:chunkwrite
func cloneChunk(c *Int32Col) *Int32Col {
	v := make([]int32, len(c.V))
	copy(v, c.V)
	out := &Int32Col{V: v}
	out.V = append(out.V, 0)
	out.V[0] = 1
	return out
}

func patchRunEnds(c *RLECol, i int) {
	c.End[i] = 0 // want `write into sealed chunk slice c\.End`
}

func regrowRuns(c *RLECol, end int32) {
	c.End = append(c.End, end) // want `reassignment of chunk slice c\.End`
}

func swapRunValues(c *RLECol, vals Column) {
	c.Vals = vals // want `reassignment of chunk slice c\.Vals`
}

func patchRunValue(c *RLECol, ri int) {
	c.Vals.(*Int32Col).V[ri] = 0 // want `write into sealed chunk slice \(\.\.\.\)\.V`
}

func patchWords(c *FoRCol, w int) {
	c.Words[w] |= 1 // want `write into sealed chunk slice c\.Words`
}

func bulkWords(c *FoRCol, src []uint64) {
	copy(c.Words, src) // want `copy into sealed chunk slice c\.Words`
}

// forPack is an audited encoder: the directive allowlists packing.
//
//astore:chunkwrite
func forPack(vals []int64) *FoRCol {
	out := &FoRCol{Words: make([]uint64, 2), N: len(vals)}
	out.Words[0] = 42
	return out
}

func readOnly(c *Int32Col, i int) int32 {
	return c.V[i] // reads are always fine
}

func readRuns(c *RLECol, i int) int32 {
	return c.Vals.(*Int32Col).V[findRunFixture(c.End, int32(i))] // reads are always fine
}

func findRunFixture(end []int32, r int32) int {
	for i, e := range end {
		if e > r {
			return i
		}
	}
	return len(end) - 1
}

func unrelated(n *notAChunk, i int) {
	n.V[i] = 7 // not a *Col type: fine
}
