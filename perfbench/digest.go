package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
)

// digestsJSON holds the output digests recorded with record-digests,
// keyed by simulation seed. Every simulation seed has one, and a run
// must reproduce it byte for byte.
//
//go:embed digests.json
var digestsJSON []byte

// simSeeds is how many simulation seeds the benchmark draws from: the
// workload seed picks one of them (see simSeed), and every one has a
// recorded digest, so every run of paper-quick and dse-full is checked
// against known-good bytes.
const simSeeds = 16

// simSeed maps a workload seed onto a recorded simulation seed in
// 1..simSeeds. Seed 0 is the paper's own seed, 1.
func simSeed(seed int64) int64 { return 1 + ((seed%simSeeds)+simSeeds)%simSeeds }

// digestFile is the layout of digests.json.
type digestFile struct {
	// PaperQuick maps a simulation seed to the quick registry's digest.
	PaperQuick map[string]paperDigest `json:"paper-quick"`
	// DSEFull maps a simulation seed to the SHA-256 of the full grid's
	// frontier JSON.
	DSEFull map[string]string `json:"dse-full"`
}

// paperDigest fingerprints one registry pass: All hashes every
// report's JSON in ID order, Reports holds a short hash per report so
// a mismatch names the experiment.
type paperDigest struct {
	All     string            `json:"all"`
	Reports map[string]string `json:"reports"`
}

func loadDigests() (digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return d, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// sha hex-encodes the SHA-256 of b.
func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// reportEntry is one experiment's rendered output.
type reportEntry struct {
	ID   string
	JSON []byte
}

// digestReports fingerprints reports given in ID order.
func digestReports(reps []reportEntry) paperDigest {
	h := sha256.New()
	d := paperDigest{Reports: make(map[string]string, len(reps))}
	for _, r := range reps {
		h.Write(r.JSON)
		h.Write([]byte{'\n'})
		d.Reports[r.ID] = sha(r.JSON)[:16]
	}
	d.All = hex.EncodeToString(h.Sum(nil))
	return d
}

// mismatches lists the experiments whose digest differs between want
// and got, including experiments present on one side only, sorted.
func mismatches(want, got paperDigest) []string {
	var out []string
	for id, w := range want.Reports {
		if g, ok := got.Reports[id]; !ok || g != w {
			out = append(out, id)
		}
	}
	for id := range got.Reports {
		if _, ok := want.Reports[id]; !ok {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// recordMain regenerates digests.json on stdout by running every
// simulation seed once through the same calls the workloads make.
func recordMain(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "record-digests takes no arguments")
		return 2
	}
	// Output bytes do not depend on the worker count.
	workers := runtime.NumCPU()
	ctx := context.Background()
	out := digestFile{PaperQuick: map[string]paperDigest{}, DSEFull: map[string]string{}}
	for s := int64(1); s <= simSeeds; s++ {
		key := strconv.FormatInt(s, 10)
		reps, errs := paperPass(ctx, s, workers)
		if len(errs) > 0 {
			fmt.Fprintf(os.Stderr, "record-digests: paper-quick seed %d: %v\n", s, errs[0])
			return 1
		}
		out.PaperQuick[key] = digestReports(reps)
		dir, err := os.MkdirTemp(tempRoot(), "record-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "record-digests: %v\n", err)
			return 1
		}
		g, err := dsePass(ctx, dseConfig(s, workers), dir, 0, nil, 0)
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "record-digests: dse-full seed %d: %v\n", s, err)
			return 1
		}
		out.DSEFull[key] = sha(g.frontier)
		fmt.Fprintf(os.Stderr, "record-digests: seed %d done\n", s)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "record-digests: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return 0
}
