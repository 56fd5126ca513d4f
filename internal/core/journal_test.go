package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

func mustDevice(t *testing.T, id string) *device.Spec {
	t.Helper()
	d, err := device.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, done, err := openJournal(path, "k1")
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("fresh journal must be empty, got %d", len(done))
	}
	j.append("a", 12.5, "")
	j.append("b", 0, "compile")
	j.close()

	_, done, err = openJournal(path, "k1")
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || done["a"].GFlops != 12.5 || done["b"].Cause != "compile" {
		t.Fatalf("round trip lost entries: %+v", done)
	}

	// A different search key must see none of them.
	_, other, err := openJournal(path, "k2")
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != 0 {
		t.Fatalf("key mismatch must skip entries, got %d", len(other))
	}
}

// A truncated final line (killed process mid-write) is discarded;
// corruption earlier in the file is an error.
func TestJournalTruncationAndCorruption(t *testing.T) {
	dir := t.TempDir()

	trunc := filepath.Join(dir, "trunc.jsonl")
	content := `{"key":"k","name":"a","gflops":1}` + "\n" + `{"key":"k","name":"b","gf`
	if err := os.WriteFile(trunc, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	j, done, err := openJournal(trunc, "k")
	if err != nil {
		t.Fatalf("truncated tail must be tolerated: %v", err)
	}
	if len(done) != 1 || done["a"].GFlops != 1 {
		t.Fatalf("complete entries must survive truncation: %+v", done)
	}
	// The resumed run appends after the last complete line, not after
	// the partial one, so the next resume reads every entry.
	j.append("c", 3, "")
	j.close()
	if _, done, err = openJournal(trunc, "k"); err != nil || len(done) != 2 || done["c"].GFlops != 3 {
		t.Fatalf("resume after a truncated tail: entries %+v, err %v", done, err)
	}

	corrupt := filepath.Join(dir, "corrupt.jsonl")
	content = `{"key":"k","name":"a","gf` + "\n" + `{"key":"k","name":"b","gflops":2}` + "\n"
	if err := os.WriteFile(corrupt, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(corrupt, "k"); !errors.Is(err, ErrInvalidJournal) || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("mid-file corruption must fail with ErrInvalidJournal and the line number, got %v", err)
	}

	long := filepath.Join(dir, "long.jsonl")
	content = `{"key":"k","name":"` + strings.Repeat("x", maxJournalLine) + `"}` + "\n"
	if err := os.WriteFile(long, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(long, "k"); !errors.Is(err, ErrInvalidJournal) {
		t.Fatalf("a line over %d bytes must fail with ErrInvalidJournal, got %v", maxJournalLine, err)
	}
	if _, _, err := openJournal(filepath.Join(dir, "missing", "j.jsonl"), "k"); !errors.Is(err, ErrInvalidJournal) {
		t.Fatalf("an unopenable journal must fail with ErrInvalidJournal, got %v", err)
	}
}

// FuzzOpenJournal feeds arbitrary bytes to openJournal's decoding
// (readJournal, in memory: writing a file per input would leave the
// fuzzer waiting on the disk). It must never panic, every error must
// match ErrInvalidJournal, and the complete lines it keeps must read
// back to the same entries. The committed corpus
// (testdata/fuzz/FuzzOpenJournal) holds a valid journal, one with a
// truncated final line and one corrupt before its last line.
func FuzzOpenJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		done, end, err := readJournal(bytes.NewReader(data), "fuzz.jsonl", "k")
		if err != nil {
			if !errors.Is(err, ErrInvalidJournal) {
				t.Fatalf("error does not match ErrInvalidJournal: %v", err)
			}
			return
		}
		if end < 0 || end > int64(len(data)) || (end > 0 && data[end-1] != '\n') {
			t.Fatalf("kept %d of %d bytes, not a run of complete lines", end, len(data))
		}
		again, end2, err := readJournal(bytes.NewReader(data[:end]), "fuzz.jsonl", "k")
		if err != nil || end2 != end || len(again) != len(done) {
			t.Fatalf("kept lines read back as %d entries, %d bytes, err %v; want %d entries, %d bytes", len(again), end2, err, len(done), end)
		}
	})
}

func TestSearchKeyDistinguishesConfigs(t *testing.T) {
	a, err := New(Options{Device: mustDevice(t, "tahiti"), Precision: matrix.Single})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Device: mustDevice(t, "fermi"), Precision: matrix.Single})
	if err != nil {
		t.Fatal(err)
	}
	if searchKey(&a.opts) == searchKey(&b.opts) {
		t.Error("different devices must produce different journal keys")
	}
	a2, _ := New(Options{Device: mustDevice(t, "tahiti"), Precision: matrix.Single})
	if searchKey(&a.opts) != searchKey(&a2.opts) {
		t.Error("identical configs must produce identical journal keys")
	}
}
