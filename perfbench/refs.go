package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// refSet holds reference digests: workload → seed → operation → digest.
// Workloads without a seed file theirs under seed "-".
type refSet map[string]map[string]map[string]string

//go:embed reference.json
var referenceJSON []byte

func loadRefs() (refSet, error) {
	var r refSet
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

func readRefs(path string) (refSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r refSet
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func writeRefs(path string, r refSet) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func refSeed(w *workloadDef, seed uint64) string {
	if !w.seeded {
		return "-"
	}
	return strconv.FormatUint(seed, 10)
}

// lookup returns the digests recorded for the workload at this seed, or nil.
func (r refSet) lookup(w *workloadDef, seed uint64) map[string]string {
	return r[w.name][refSeed(w, seed)]
}

// add records a run's digests; a run with a failed operation is refused.
func (r refSet) add(w *workloadDef, seed uint64, ops []opDigest) error {
	digests := make(map[string]string, len(ops))
	for _, op := range ops {
		if op.Err != "" {
			return fmt.Errorf("%s %s: %s", w.name, opKey(op), op.Err)
		}
		digests[opKey(op)] = op.Digest
	}
	if r[w.name] == nil {
		r[w.name] = make(map[string]map[string]string)
	}
	r[w.name][refSeed(w, seed)] = digests
	return nil
}
