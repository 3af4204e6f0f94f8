package storage

import (
	"fmt"
	"runtime"
	"testing"
)

// TestLayoutDoesNotDecode: sampling an encoded table's layout — what every
// stats poll and metrics scrape does — allocates nothing, however many rows
// the encoded chunks hold, and still reports the plain size as logical.
func TestLayoutDoesNotDecode(t *testing.T) {
	_, fact := buildEncodedFixture(t, 1<<16) // 255 encoded sealed segments
	l := fact.Layout()
	if l.EncodedChunks == 0 || l.PhysicalBytes >= l.LogicalBytes {
		t.Fatalf("fixture not compressed: %+v", l.CompressionStats)
	}
	// Logical bytes are the plain widths: 4 B for run32/small/wide/tag, 8 B
	// for run64/big64/f, and the string payloads of s, which is never encoded.
	strBytes := int64(0)
	for i := 0; i < 1<<16; i++ {
		strBytes += int64(len(fmt.Sprintf("r%d", i))) + 16
	}
	if want := int64(1<<16)*(4*4+8*3) + strBytes; l.LogicalBytes != want {
		t.Fatalf("LogicalBytes = %d, want %d", l.LogicalBytes, want)
	}

	if allocs := testing.AllocsPerRun(10, func() { fact.Layout() }); allocs != 0 {
		t.Errorf("Layout allocates %.0f times per call, want 0", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		fact.Layout()
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Errorf("10 Layout calls allocated %d bytes, want a bound independent of the row count", alloc)
	}
}
