package tunedb

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to Load's decoding as a database file
// (read, in memory: writing a file per input would leave the fuzzer
// waiting on the disk). It must never panic, and every error it
// returns must match ErrInvalidDB. The committed corpus
// (testdata/fuzz/FuzzLoad) holds a valid file, a truncated one, one
// with the wrong version and one with a record too large for its
// device.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := read(bytes.NewReader(data), "fuzz.json")
		if err != nil && !errors.Is(err, ErrInvalidDB) {
			t.Fatalf("error does not match ErrInvalidDB: %v", err)
		}
		if err == nil && db.Version != FormatVersion {
			t.Fatalf("loaded version %d", db.Version)
		}
	})
}
