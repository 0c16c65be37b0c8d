package main

// The append-only run record: one JSON line per run with what is needed
// to compare runs across commits — the source revision, the host, the
// configuration, the metrics, and the non-test Go line count of each
// module, so a change that deletes code shows its size next to its
// latencies.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func appendRecord(path, workload string, seed int64, seconds, trace int, scale float64, rep *report, out *outcome) error {
	sha, dirty := gitRevision()
	host, _ := os.Hostname() // an empty host name is still a usable record
	loc, err := countLoC(".")
	if err != nil {
		return err
	}
	rec := map[string]any{
		"time":       time.Now().UTC().Format(time.RFC3339),
		"git_sha":    sha,
		"git_dirty":  dirty,
		"host":       host,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"workload":   workload,
		"seed":       seed,
		"config":     map[string]any{"seconds": seconds, "trace": trace, "scale": scale},
		"digest":     out.digest,
		"valid":      out.valid(),
		"invalid":    out.invalid,
		"correct":    out.violation == nil,
		"attempted":  out.attempted,
		"failed":     out.failed,
		"metrics":    rep.metrics,
		"info":       rep.info,
		"loc":        loc,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitRevision returns the checked-out commit and whether the tree has
// changes, or "unknown" when the working directory is not the top of a
// git checkout (git is kept from searching the parent directories).
func gitRevision() (string, bool) {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown", false
	}
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		return cmd.Output()
	}
	sha, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", false
	}
	st, err := git("status", "--porcelain", "--untracked-files=no")
	return strings.TrimSpace(string(sha)), err == nil && len(bytes.TrimSpace(st)) > 0
}

// countLoC counts non-test Go lines per module under root: the root
// package is "svc", internal packages are "internal/<name>", everything
// else is its top-level directory. The benchmark itself and hidden or
// build directories are skipped.
func countLoC(root string) (map[string]int, error) {
	loc := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		parts := strings.Split(filepath.ToSlash(rel), "/")
		module := "svc"
		switch {
		case len(parts) >= 3 && parts[0] == "internal":
			module = "internal/" + parts[1]
		case len(parts) >= 2:
			module = parts[0]
		}
		n, err := countLines(path)
		if err != nil {
			return err
		}
		loc["loc."+module] += n
		return nil
	})
	return loc, err
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}
