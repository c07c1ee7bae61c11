package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostRecord stamps every result with where and how it was measured.
type hostRecord struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit of the checkout, "none" outside a git
	// repository; SourceDigest identifies the sources either way.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	LoadAvg      string `json:"loadavg_at_start"`
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	// Clients and Workers are the load the workload put on the
	// program: closed-loop API callers and fleet worker shards.
	Clients int `json:"clients"`
	Workers int `json:"workers"`
}

func newHostRecord(o options, w workload) hostRecord {
	h := hostRecord{
		Nproc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPU:          cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(o.root),
		SourceDigest: sourceDigest(o.root),
		LoadAvg:      strings.TrimSpace(readFile("/proc/loadavg")),
		Workload:     o.workload,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Trace:        o.trace,
		Workers:      w.workers,
		Clients:      w.clients,
	}
	return h
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the module's Go sources and go.mod files (paths
// and contents, in path order), skipping hidden and build directories.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
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
	return hex.EncodeToString(h.Sum(nil))[:16]
}
