package difftest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Findings land on disk as self-contained repro dirs: one directory
// per fingerprint holding the machine-readable metadata, the generated
// C source, and the reduced IR reproducer. The same layout serves two
// roles: a fleet run's -corpus output (live bugs awaiting a fix), and
// the checked-in testdata/corpus/ of *fixed* reproducers that
// TestRegressionCorpus replays forever after, so a bug the oracle has
// caught once can never silently return.

// ReproSchema identifies a repro dir's meta.json layout.
const ReproSchema = "splendid-difftest-repro/v1"

// Repro file names inside a repro dir.
const (
	reproMetaFile   = "meta.json"
	reproSourceFile = "source.c"
	reproIRFile     = "reduced.ll"
)

// ReproMeta is a repro dir's meta.json.
type ReproMeta struct {
	Schema string `json:"schema"`
	// Expect states the replay contract: "clean" — the round trip of
	// source.c and the self-consistency of reduced.ll must hold (the
	// bug is fixed); "trap" — as clean, and source.c must also end in
	// the same categorized trap on the golden evaluator and both
	// engines (it used to crash them); "parse-reject" — reduced.ll is
	// degenerate text the IR parser must refuse.
	Expect      string   `json:"expect"`
	Seed        uint64   `json:"seed,omitempty"`
	Entries     []string `json:"entries,omitempty"`
	Threads     int      `json:"threads,omitempty"`
	Classes     []string `json:"classes,omitempty"`
	Fingerprint string   `json:"fingerprint,omitempty"`
	// Note is a human explanation of the bug the repro pins.
	Note string `json:"note,omitempty"`
}

// WriteRepro materializes one finding as a repro dir under dir, named
// by its fingerprint, and returns the dir's path. Writing the same
// fingerprint again is a no-op (the first reproducer stands), which is
// what makes corpus writes from resumed runs idempotent.
func WriteRepro(dir string, f *Finding, threads int) (string, error) {
	rd := filepath.Join(dir, f.Fingerprint)
	if _, err := os.Stat(filepath.Join(rd, reproMetaFile)); err == nil {
		return rd, nil
	}
	if err := os.MkdirAll(rd, 0o755); err != nil {
		return "", fmt.Errorf("difftest corpus: %w", err)
	}
	meta := ReproMeta{
		Schema:      ReproSchema,
		Expect:      "clean",
		Seed:        f.Seed,
		Entries:     f.Entries,
		Threads:     threads,
		Classes:     f.Classes,
		Fingerprint: f.Fingerprint,
	}
	b, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return "", fmt.Errorf("difftest corpus: %w", err)
	}
	files := map[string][]byte{
		reproMetaFile: append(b, '\n'),
		reproIRFile:   []byte(f.ReducedIR),
	}
	if f.Source != "" {
		files[reproSourceFile] = []byte(f.Source)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(rd, name), data, 0o644); err != nil {
			return "", fmt.Errorf("difftest corpus: %w", err)
		}
	}
	return rd, nil
}

// Repro is one loaded corpus entry.
type Repro struct {
	Name   string // the entry's directory name
	Dir    string
	Meta   ReproMeta
	Source string // "" when the entry has no source.c
	IR     string // "" when the entry has no reduced.ll
}

// LoadCorpus reads every repro dir under dir, sorted by name for
// deterministic replay order. A missing corpus dir is an empty corpus,
// not an error, so fresh checkouts and optional -corpus flags behave.
func LoadCorpus(dir string) ([]*Repro, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("difftest corpus: %w", err)
	}
	var out []*Repro
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rd := filepath.Join(dir, e.Name())
		mb, err := os.ReadFile(filepath.Join(rd, reproMetaFile))
		if err != nil {
			return nil, fmt.Errorf("difftest corpus: entry %s: %w", e.Name(), err)
		}
		r := &Repro{Name: e.Name(), Dir: rd}
		if err := json.Unmarshal(mb, &r.Meta); err != nil {
			return nil, fmt.Errorf("difftest corpus: entry %s: %w", e.Name(), err)
		}
		if r.Meta.Schema != ReproSchema {
			return nil, fmt.Errorf("difftest corpus: entry %s: schema %q, want %q", e.Name(), r.Meta.Schema, ReproSchema)
		}
		if b, err := os.ReadFile(filepath.Join(rd, reproSourceFile)); err == nil {
			r.Source = string(b)
		}
		if b, err := os.ReadFile(filepath.Join(rd, reproIRFile)); err == nil {
			r.IR = string(b)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
