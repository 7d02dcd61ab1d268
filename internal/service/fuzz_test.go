package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzCanonicalJobSpec feeds arbitrary bytes through the /v1/jobs intake
// every worker and coordinator runs: decode a BatchRequest the way the
// handlers do, then canonicalize each job. Nothing may panic, and
// canonicalizing is idempotent — a canonical spec maps to itself and to
// the same content hash, so an alias spelling and its canonical form can
// never land on two cells. A failing input is written under
// testdata/fuzz/FuzzCanonicalJobSpec/; commit it as a seed.
func FuzzCanonicalJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req BatchRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		for _, j := range req.Jobs {
			cj, hash, err := CanonicalJobSpec(j)
			if err != nil {
				continue
			}
			again, hash2, err := CanonicalJobSpec(cj)
			if err != nil {
				t.Fatalf("canonical spec %+v of %+v rejected: %v", cj, j, err)
			}
			if again != cj || hash2 != hash {
				t.Fatalf("canonicalizing is not idempotent: %+v -> %+v (%s) -> %+v (%s)", j, cj, hash, again, hash2)
			}
		}
	})
}
