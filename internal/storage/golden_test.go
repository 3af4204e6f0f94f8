package storage

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"testing"
)

// goldenImage is a small "ASTORDB3" image of buildGoldenDB, committed so that
// a change to how chunks are encoded or persisted shows up as a byte diff.
// Regenerate it (only when the format is meant to change) with
//
//	go test ./internal/storage -run TestGoldenImage -update-golden
const goldenImage = "testdata/encoded.astoredb"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenImage+" from buildGoldenDB")

// buildGoldenDB is buildEncodedFixture at 1000 rows — three encoded sealed
// segments holding every chunk shape plus a plain tail — with a deleted row
// in a sealed segment and one in the tail, and a dimension table sharing the
// fact's tag dictionary.
func buildGoldenDB(t *testing.T) *Database {
	t.Helper()
	db, fact := buildEncodedFixture(t, 1000)
	for _, row := range []int{5, 990} {
		if err := fact.Delete(row); err != nil {
			t.Fatal(err)
		}
	}
	region := NewDictCol(fact.ColumnProto("tag").(*DictCol).Dict)
	for _, s := range []string{"EUROPE", "OCEANIA", "ASIA"} {
		region.Append(s)
	}
	dim := NewTable("dim")
	dim.MustAddColumn("region", region)
	db.MustAdd(dim)
	return db
}

// TestGoldenImage: the committed image loads and re-saves byte-identical,
// and the fixture it was written from still saves to exactly those bytes —
// the same encodings chosen, at the same sizes, in the same format.
func TestGoldenImage(t *testing.T) {
	var fresh bytes.Buffer
	if err := buildGoldenDB(t).Save(&fresh); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenImage, fresh.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenImage)
	if err != nil {
		t.Fatal(err)
	}
	db, err := LoadDatabase(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	encs := make(map[Encoding]int)
	for _, shapes := range chunkEncodings(db.Table("fact")) {
		for _, e := range shapes {
			encs[e]++
		}
	}
	if encs[EncRLE] == 0 || encs[EncFoR] == 0 || encs[EncPlain] == 0 {
		t.Fatalf("golden image sealed chunks by encoding = %v, want all three", encs)
	}
	var resaved bytes.Buffer
	if err := db.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), golden) {
		t.Fatalf("golden image re-saved to %d different bytes (was %d)", resaved.Len(), len(golden))
	}
	if !bytes.Equal(fresh.Bytes(), golden) {
		t.Fatalf("fixture saves to %d bytes that differ from the golden image (%d bytes)", fresh.Len(), len(golden))
	}
}

// FuzzLoadDatabase: whatever bytes arrive, LoadDatabase returns an error or
// a database — it never panics — and it allocates at most a constant times
// the input's length (plus the reader's fixed buffer): no count read from a
// header may reserve memory the input does not back.
func FuzzLoadDatabase(f *testing.F) {
	golden, err := os.ReadFile(goldenImage)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, cut := range []int{8, 16, 64, 256, len(golden) / 3, len(golden) / 2, len(golden) - 9} {
		f.Add(golden[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err := LoadDatabase(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil && db == nil {
			t.Fatal("nil database without an error")
		}
		const fixed, perByte = 4 << 20, 256
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > fixed+perByte*uint64(len(data)) {
			t.Fatalf("loading %d bytes allocated %d bytes", len(data), alloc)
		}
	})
}
