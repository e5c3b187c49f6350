package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
)

// defaultSeed is the seed the committed expectations were recorded with.
const defaultSeed = 1

// expectedPath is relative to the repository root, where the benchmark runs.
var expectedPath = filepath.Join("benchmark", "expected", "seed1.json")

// expected holds, per workload and op id, the exact simulated statistics a
// run with the default seed must reproduce. A simulator that gets faster
// must leave every one of them alone; a change that moves them on purpose
// regenerates the file with -write-expected and says why.
type expected struct {
	Workloads map[string]map[string]opStats `json:"workloads"`
}

func loadExpected() (*expected, error) {
	e := &expected{Workloads: map[string]map[string]opStats{}}
	b, err := os.ReadFile(expectedPath)
	if errors.Is(err, fs.ErrNotExist) {
		return e, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, e); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *expected) get(workload, id string) (opStats, bool) {
	s, ok := e.Workloads[workload][id]
	return s, ok
}

func (e *expected) set(workload string, ops map[string]opStats) {
	e.Workloads[workload] = ops
}

// save writes the file with sorted keys (encoding/json sorts map keys), so
// regenerating it without a behaviour change leaves no diff.
func (e *expected) save() error {
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(expectedPath), 0o755); err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(b, '\n'), 0o644)
}
