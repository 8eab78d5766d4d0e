package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// trajectoryRecord is one line of the append-only trajectory: who ran
// what on which code, and what it measured.
type trajectoryRecord struct {
	Time       string             `json:"time"`
	GitRev     string             `json:"git_rev,omitempty"`
	SourceSHA  string             `json:"source_sha"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NProc      int                `json:"nproc"`
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	EndToEnd   map[string]summary `json:"end_to_end,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Notes      map[string]string  `json:"notes,omitempty"`
}

// appendTrajectory adds this run's record to the trajectory file.
func appendTrajectory(path string, b *bench, seconds int, trace bool, res *result, e2e map[string]summary) error {
	rec := trajectoryRecord{
		Time:       time.Now().UTC().Format(time.RFC3339),
		GitRev:     gitRev("."),
		SourceSHA:  sourceSHA("."),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      b.nproc,
		Workload:   b.name,
		Seed:       b.seed,
		Seconds:    seconds,
		Trace:      trace,
		Correct:    res.correct,
		Attempted:  res.attempted,
		Failed:     res.failed,
		Notes:      res.notes,
	}
	if trace {
		rec.Layers = res.layers
	} else {
		rec.EndToEnd = e2e
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitRev reads the commit checked out at root from .git without running git, so
// nothing outside the checkout is consulted. It returns "" where there is
// no .git directory, as in an exported source tree.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref // detached HEAD holds the commit itself
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs")) // absent when every ref is loose
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// sourceSHA hashes the Go sources and module files under root, so a
// record names the code it measured even where there is no git history.
func sourceSHA(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the fingerprint
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
