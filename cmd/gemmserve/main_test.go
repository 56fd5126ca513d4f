package main

import (
	"errors"
	"io"
	"path/filepath"
	"testing"

	"oclgemm/internal/matrix"
	"oclgemm/internal/tunedb"
)

// TestRefusesOversizedDB: gemmserve -db serves what it loads, so a
// record beyond its device's limits (the tahiti single Table II kernel
// with mwg 1 048 576) must stop it before it serves.
func TestRefusesOversizedDB(t *testing.T) {
	rec, ok := tunedb.PaperTableII().Get("tahiti", matrix.Single)
	if !ok {
		t.Fatal("no tahiti single record")
	}
	rec.Mwg = 1 << 20
	path := filepath.Join(t.TempDir(), "db.json")
	db := &tunedb.DB{}
	db.Put(rec)
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-db", path}, io.Discard, io.Discard)
	if !errors.Is(err, tunedb.ErrInvalidDB) {
		t.Fatalf("want tunedb.ErrInvalidDB, got %v", err)
	}
}
