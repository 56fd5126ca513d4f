// Package tunedb persists auto-tuning results: a small JSON database
// mapping (device, precision) to the fastest kernel's parameters and
// performance, in the spirit of the tuning databases production GEMM
// autotuners ship. It also carries the paper's own Table II results as
// built-in defaults, so a user gets the published configurations
// without running a search.
package tunedb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

// ErrNotFound is the sentinel every lookup miss wraps; match it with
// errors.Is, or errors.As a *NotFoundError for the missing key.
var ErrNotFound = errors.New("tunedb: no tuned kernel")

// NotFoundError reports a (device, precision) pair the database has no
// record for, including after the Table II nearest-device fallback.
type NotFoundError struct {
	Device    string
	Precision string
}

// Error describes the missing key.
func (e *NotFoundError) Error() string {
	return fmt.Sprintf("tunedb: no tuned kernel for device %q (%s)", e.Device, e.Precision)
}

// Is makes errors.Is(err, ErrNotFound) match.
func (e *NotFoundError) Is(target error) bool { return target == ErrNotFound }

// Record is one tuned kernel in serializable form (enums as strings so
// the file is reviewable).
type Record struct {
	Device    string `json:"device"`
	Precision string `json:"precision"` // "single" | "double"
	Algorithm string `json:"algorithm"` // "BA" | "PL" | "DB"

	Mwg int `json:"mwg"`
	Nwg int `json:"nwg"`
	Kwg int `json:"kwg"`

	MdimC int `json:"mdimc"`
	NdimC int `json:"ndimc"`
	MdimA int `json:"mdima"`
	NdimB int `json:"ndimb"`
	Kwi   int `json:"kwi"`

	VectorWidth int  `json:"vw"`
	StrideM     bool `json:"stride_m"`
	StrideN     bool `json:"stride_n"`
	SharedA     bool `json:"shared_a"`
	SharedB     bool `json:"shared_b"`

	LayoutA string `json:"layout_a"` // "RM" | "CBL" | "RBL"
	LayoutB string `json:"layout_b"`

	GFlops float64 `json:"gflops"`
	BestN  int     `json:"best_n"`
	Source string  `json:"source,omitempty"` // e.g. "paper-table2", "search"
}

// FromParams builds a record from a parameter set.
func FromParams(deviceID string, p codegen.Params, gflops float64, bestN int, source string) Record {
	return Record{
		Device:      deviceID,
		Precision:   p.Precision.String(),
		Algorithm:   p.Algorithm.String(),
		Mwg:         p.Mwg,
		Nwg:         p.Nwg,
		Kwg:         p.Kwg,
		MdimC:       p.MdimC,
		NdimC:       p.NdimC,
		MdimA:       p.MdimA,
		NdimB:       p.NdimB,
		Kwi:         p.Kwi,
		VectorWidth: p.VectorWidth,
		StrideM:     p.StrideM,
		StrideN:     p.StrideN,
		SharedA:     p.SharedA,
		SharedB:     p.SharedB,
		LayoutA:     p.LayoutA.String(),
		LayoutB:     p.LayoutB.String(),
		GFlops:      gflops,
		BestN:       bestN,
		Source:      source,
	}
}

// Params reconstructs the kernel parameter set.
func (r Record) Params() (codegen.Params, error) {
	var p codegen.Params
	switch r.Precision {
	case "single":
		p.Precision = matrix.Single
	case "double":
		p.Precision = matrix.Double
	default:
		return p, fmt.Errorf("tunedb: unknown precision %q", r.Precision)
	}
	alg, err := codegen.ParseAlgorithm(r.Algorithm)
	if err != nil {
		return p, err
	}
	p.Algorithm = alg
	la, err := matrix.ParseLayout(r.LayoutA)
	if err != nil {
		return p, err
	}
	lb, err := matrix.ParseLayout(r.LayoutB)
	if err != nil {
		return p, err
	}
	p.LayoutA, p.LayoutB = la, lb
	p.Mwg, p.Nwg, p.Kwg = r.Mwg, r.Nwg, r.Kwg
	p.MdimC, p.NdimC = r.MdimC, r.NdimC
	p.MdimA, p.NdimB = r.MdimA, r.NdimB
	p.Kwi = r.Kwi
	p.VectorWidth = r.VectorWidth
	p.StrideM, p.StrideN = r.StrideM, r.StrideN
	p.SharedA, p.SharedB = r.SharedA, r.SharedB
	return p, p.Validate()
}

// FormatVersion is the on-disk database format this package writes and
// accepts. Bump it when the record schema changes incompatibly.
const FormatVersion = 1

// DB is a set of records keyed by (device, precision).
type DB struct {
	// Version is the file format version; Save stamps FormatVersion
	// and Load rejects anything else (including files with no version,
	// the signature of truncation or a pre-versioning writer).
	Version int      `json:"version"`
	Records []Record `json:"records"`
}

// key identity.
func key(deviceID string, prec matrix.Precision) (string, string) {
	return deviceID, prec.String()
}

// Get returns the record for a device and precision.
func (db *DB) Get(deviceID string, prec matrix.Precision) (Record, bool) {
	d, ps := key(deviceID, prec)
	for _, r := range db.Records {
		if r.Device == d && r.Precision == ps {
			return r, true
		}
	}
	return Record{}, false
}

// Lookup returns the record for a device and precision, or a
// *NotFoundError (matching ErrNotFound) naming the missing key.
func (db *DB) Lookup(deviceID string, prec matrix.Precision) (Record, error) {
	if rec, ok := db.Get(deviceID, prec); ok {
		return rec, nil
	}
	return Record{}, &NotFoundError{Device: deviceID, Precision: prec.String()}
}

// LookupOrFallback resolves the kernel to run on a device: the exact
// record when present and valid for the device, otherwise the record of
// the nearest catalogued device of the same kind by peak GFlop/s whose
// parameters pass the device checks (the Table II degradation
// TuneOrFallback and the pool scheduler share). The returned string
// describes which path was taken; a miss on both paths is a
// *NotFoundError.
func LookupOrFallback(db *DB, d *device.Spec, prec matrix.Precision) (Record, string, error) {
	if rec, err := db.Lookup(d.ID, prec); err == nil {
		if p, perr := rec.Params(); perr == nil && p.CheckDevice(d) == nil {
			return rec, "published kernel for " + d.ID, nil
		}
	}
	peak := d.PeakGFlops(prec)
	best, bestHow, bestDist := Record{}, "", math.Inf(1)
	for _, cand := range device.Catalog() {
		if cand.Kind != d.Kind || cand.ID == d.ID {
			continue
		}
		rec, ok := db.Get(cand.ID, prec)
		if !ok {
			continue
		}
		p, err := rec.Params()
		if err != nil || p.CheckDevice(d) != nil {
			continue
		}
		if dist := math.Abs(cand.PeakGFlops(prec) - peak); dist < bestDist {
			best, bestDist = rec, dist
			bestHow = fmt.Sprintf("nearest-device kernel from %s", cand.ID)
		}
	}
	if bestHow == "" {
		return best, "", &NotFoundError{Device: d.ID, Precision: prec.String()}
	}
	return best, bestHow, nil
}

// Put inserts or replaces the record for its (device, precision) slot
// and keeps the database sorted for stable files.
func (db *DB) Put(rec Record) {
	for i, r := range db.Records {
		if r.Device == rec.Device && r.Precision == rec.Precision {
			db.Records[i] = rec
			return
		}
	}
	db.Records = append(db.Records, rec)
	sort.Slice(db.Records, func(i, j int) bool {
		a, b := db.Records[i], db.Records[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		return a.Precision < b.Precision
	})
}

// Save writes the database as indented JSON, stamping FormatVersion.
func (db *DB) Save(path string) error {
	db.Version = FormatVersion
	data, err := json.MarshalIndent(db, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ErrInvalidDB is the sentinel every Load error wraps; match it with
// errors.Is. An error reading the file also still matches its cause
// (errors.Is(err, fs.ErrNotExist) for a missing file).
var ErrInvalidDB = errors.New("tunedb: cannot load database")

// maxFileBytes caps what Load reads. A database holds one record per
// catalogued (device, precision) pair, a few KiB; anything near the cap
// is not a file Save wrote.
const maxFileBytes = 1 << 20

// Load reads a database written by Save. Corrupted, truncated or
// hostile files are rejected rather than silently accepted: the file
// must fit maxFileBytes, the JSON must parse, the format version must
// match, and every record must reconstruct valid parameters that fit
// its device (the limits the search space applies: work-group size,
// local memory) — the error names the offending record's index. Every
// error wraps ErrInvalidDB.
func Load(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidDB, err)
	}
	defer f.Close()
	return read(f, path)
}

// read is Load from an open file named path.
func read(r io.Reader, path string) (*DB, error) {
	bad := func(format string, args ...any) (*DB, error) {
		return nil, fmt.Errorf("%w: %s: %w", ErrInvalidDB, path, fmt.Errorf(format, args...))
	}
	data, err := io.ReadAll(io.LimitReader(r, maxFileBytes+1))
	if err != nil {
		return bad("%w", err)
	}
	if len(data) > maxFileBytes {
		return bad("larger than %d bytes", maxFileBytes)
	}
	var db DB
	if err := json.Unmarshal(data, &db); err != nil {
		return bad("corrupt or truncated: %w", err)
	}
	if db.Version != FormatVersion {
		return bad("format version %d, want %d (missing version marks a truncated or pre-versioning file)",
			db.Version, FormatVersion)
	}
	for i, r := range db.Records {
		p, err := r.Params()
		if err != nil {
			return bad("record %d (%s/%s): %w", i, r.Device, r.Precision, err)
		}
		d, err := device.ByID(r.Device)
		if err != nil {
			return bad("record %d: %w", i, err)
		}
		if !p.ValidFor(d) {
			return bad("record %d (%s/%s): %w", i, r.Device, r.Precision, p.CheckDevice(d))
		}
	}
	return &db, nil
}

// PaperTableII returns the paper's published fastest-kernel
// configurations and performance (Table II) as a database — usable as
// defaults without running a search.
func PaperTableII() *DB {
	mk := func(devID string, p codegen.Params, gf float64, n int) Record {
		return FromParams(devID, p, gf, n, "paper-table2")
	}
	db := &DB{Version: FormatVersion}
	recs := []Record{
		mk("tahiti", codegen.Params{Precision: matrix.Double, Algorithm: codegen.BA,
			Mwg: 96, Nwg: 32, Kwg: 48, MdimC: 16, NdimC: 16, MdimA: 16, NdimB: 16,
			Kwi: 2, VectorWidth: 2, SharedB: true,
			LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL}, 863, 4032),
		mk("tahiti", codegen.Params{Precision: matrix.Single, Algorithm: codegen.BA,
			Mwg: 96, Nwg: 96, Kwg: 16, MdimC: 16, NdimC: 16, MdimA: 16, NdimB: 16,
			Kwi: 2, VectorWidth: 1, SharedA: true, SharedB: true,
			LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL}, 3047, 4032),
		mk("cayman", codegen.Params{Precision: matrix.Double, Algorithm: codegen.BA,
			Mwg: 64, Nwg: 32, Kwg: 48, MdimC: 16, NdimC: 8, MdimA: 16, NdimB: 16,
			Kwi: 24, VectorWidth: 2,
			LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL}, 580, 4032),
		mk("cayman", codegen.Params{Precision: matrix.Single, Algorithm: codegen.PL,
			Mwg: 128, Nwg: 64, Kwg: 96, MdimC: 16, NdimC: 8, MdimA: 16, NdimB: 8,
			Kwi: 24, VectorWidth: 4, StrideN: true,
			LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL}, 2167, 4096),
		mk("kepler", codegen.Params{Precision: matrix.Double, Algorithm: codegen.BA,
			Mwg: 32, Nwg: 64, Kwg: 8, MdimC: 16, NdimC: 16, MdimA: 32, NdimB: 32,
			Kwi: 4, VectorWidth: 1, StrideN: true, SharedA: true, SharedB: true,
			LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL}, 128, 4096),
		mk("kepler", codegen.Params{Precision: matrix.Single, Algorithm: codegen.PL,
			Mwg: 64, Nwg: 64, Kwg: 8, MdimC: 8, NdimC: 16, MdimA: 32, NdimB: 32,
			Kwi: 8, VectorWidth: 2, StrideM: true, SharedA: true, SharedB: true,
			LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL}, 1440, 4096),
		mk("fermi", codegen.Params{Precision: matrix.Double, Algorithm: codegen.PL,
			Mwg: 64, Nwg: 64, Kwg: 8, MdimC: 16, NdimC: 16, MdimA: 64, NdimB: 64,
			Kwi: 2, VectorWidth: 1, StrideN: true, SharedA: true, SharedB: true,
			LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutRBL}, 370, 4096),
		mk("fermi", codegen.Params{Precision: matrix.Single, Algorithm: codegen.BA,
			Mwg: 64, Nwg: 64, Kwg: 16, MdimC: 8, NdimC: 16, MdimA: 32, NdimB: 8,
			Kwi: 16, VectorWidth: 2, StrideM: true, StrideN: true, SharedA: true, SharedB: true,
			LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL}, 896, 4096),
		mk("sandybridge", codegen.Params{Precision: matrix.Double, Algorithm: codegen.DB,
			Mwg: 64, Nwg: 32, Kwg: 64, MdimC: 16, NdimC: 4, MdimA: 16, NdimB: 16,
			Kwi: 4, VectorWidth: 4, StrideN: true, SharedB: true,
			LayoutA: matrix.LayoutRBL, LayoutB: matrix.LayoutRBL}, 64, 1536),
		mk("sandybridge", codegen.Params{Precision: matrix.Single, Algorithm: codegen.BA,
			Mwg: 64, Nwg: 64, Kwg: 64, MdimC: 8, NdimC: 8, MdimA: 8, NdimB: 8,
			Kwi: 8, VectorWidth: 8, StrideM: true, SharedB: true,
			LayoutA: matrix.LayoutRBL, LayoutB: matrix.LayoutRBL}, 140, 1536),
		mk("bulldozer", codegen.Params{Precision: matrix.Double, Algorithm: codegen.DB,
			Mwg: 48, Nwg: 32, Kwg: 96, MdimC: 24, NdimC: 4, MdimA: 24, NdimB: 2,
			Kwi: 16, VectorWidth: 2, StrideM: true, SharedB: true,
			LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutRBL}, 37, 1536),
		mk("bulldozer", codegen.Params{Precision: matrix.Single, Algorithm: codegen.BA,
			Mwg: 32, Nwg: 48, Kwg: 192, MdimC: 8, NdimC: 4, MdimA: 8, NdimB: 8,
			Kwi: 4, VectorWidth: 4, StrideM: true,
			LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL}, 87, 1536),
	}
	for _, r := range recs {
		db.Put(r)
	}
	return db
}
