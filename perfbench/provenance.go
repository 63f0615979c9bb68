package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"cryowire/internal/buildinfo"
)

// provenance identifies the host, toolchain and source a result came
// from, so two result sets can be checked for comparability.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision stamped into the binary, or "unknown"
	// when it was built outside a repository.
	Commit string `json:"commit"`
	// SourceSHA256 hashes every .go file and go.mod of the program
	// (the benchmark's own directory excluded), so two checkouts
	// without VCS metadata can still be told apart.
	SourceSHA256 string `json:"source_sha256"`
	Seed         int64  `json:"seed"`
	Workload     string `json:"workload"`
}

func collectProvenance(o opts) provenance {
	commit := buildinfo.Revision()
	if commit == "" {
		commit = "unknown"
	}
	return provenance{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit,
		SourceSHA256: sourceDigest(repoRoot()),
		Seed:         o.Seed,
		Workload:     o.Workload,
	}
}

// repoRoot is the checkout the benchmark runs in: PERFBENCH_ROOT when
// the launcher set it, else the working directory.
func repoRoot() string {
	if r := os.Getenv("PERFBENCH_ROOT"); r != "" {
		return r
	}
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return wd
}

// stateDir is where a run keeps what it leaves behind (spans, temp
// files, saved results): PERFBENCH_STATE, else .bench_build under the
// checkout.
func stateDir() string {
	if d := os.Getenv("PERFBENCH_STATE"); d != "" {
		return d
	}
	return filepath.Join(repoRoot(), ".bench_build")
}

// sourceDigest hashes the program's sources under root in path order;
// "" when nothing could be read.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		return ""
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
