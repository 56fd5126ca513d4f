package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// The stage-1 checkpoint journal: one JSON line per completed
// evaluation, keyed by a hash of the search identity so a journal file
// can be shared across devices and precisions. An interrupted Tune
// re-run with the same journal path replays completed measurements
// instead of re-evaluating them (Stats.Resumed counts the hits).
//
// The journal records outcomes, not evaluator internals: resuming with
// a different evaluator configuration silently reuses the old
// measurements, so callers should key journal files to their setup.

// journalEntry is one persisted stage-1 outcome.
type journalEntry struct {
	Key    string  `json:"key"`
	Name   string  `json:"name"`
	GFlops float64 `json:"gflops"`
	Cause  string  `json:"cause,omitempty"` // empty = success
}

// journal appends entries to an open file under a mutex (stage-1
// workers write concurrently).
type journal struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	key string
}

// searchKey fingerprints the search identity: device, precision, and
// the candidate space. Entries from other searches in the same file are
// skipped on load.
func searchKey(o *Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%+v", o.Device.ID, o.Precision, *o.Space)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// maxJournalLine bounds one journal line, far above any line the
// writer makes.
const maxJournalLine = 1 << 20

// openJournal opens (creating if needed) the journal at path and
// returns it along with the already-completed entries for key. A
// truncated final line — the signature of a killed process — is
// discarded and cut from the file, so appends start on a fresh line;
// any other malformed line fails the load so corruption is surfaced
// rather than silently resumed over. Every error wraps
// ErrInvalidJournal.
func openJournal(path, key string) (*journal, map[string]journalEntry, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrInvalidJournal, err)
	}
	done, end, err := readJournal(f, path, key)
	if err == nil {
		// Cut a partial tail so appends start on a fresh line.
		if err = f.Truncate(end); err == nil {
			_, err = f.Seek(end, io.SeekStart)
		}
		if err != nil {
			err = fmt.Errorf("%w: %s: %w", ErrInvalidJournal, path, err)
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &journal{f: f, w: bufio.NewWriter(f), key: key}, done, nil
}

// readJournal reads a journal named path from r. It returns the
// entries recorded for key and end, the length of the complete lines.
// The writer ends every line it finishes with a newline, so an
// unterminated final line is a partial write and is left out even
// when it parses (a number cut short still parses). Every error wraps
// ErrInvalidJournal.
func readJournal(r io.Reader, path, key string) (done map[string]journalEntry, end int64, err error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %w", ErrInvalidJournal, path, fmt.Errorf(format, args...))
	}
	var read int64
	terminated := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), maxJournalLine)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if tok != nil {
			read += int64(adv)
			terminated = data[adv-1] == '\n'
		}
		return adv, tok, err
	})
	done = make(map[string]journalEntry)
	lineno := 0
	for sc.Scan() {
		lineno++
		if !terminated {
			break
		}
		end = read
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, 0, bad("malformed line %d: %w", lineno, err)
		}
		if e.Key == key {
			done[e.Name] = e
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, bad("line %d: %w", lineno+1, err)
	}
	return done, end, nil
}

// append records one completed evaluation and flushes it, so a kill
// loses at most the in-flight line.
func (j *journal) append(name string, gf float64, cause string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	data, err := json.Marshal(journalEntry{Key: j.key, Name: name, GFlops: gf, Cause: cause})
	if err != nil {
		return
	}
	j.w.Write(data)
	j.w.WriteByte('\n')
	j.w.Flush()
}

// close flushes and closes the file.
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.w.Flush()
	j.f.Close()
}
