package exp

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"faircc/internal/metrics"
)

// Manifest is the provenance record emitted next to an experiment's CSV:
// everything needed to reproduce the run (name, the Config it ran — scale,
// seed and every parameter — and the code version) and to compare its
// performance against other runs (RunStats).
type Manifest struct {
	Experiment string `json:"experiment"`
	Title      string `json:"title"`
	Config

	GitDescribe string `json:"git_describe,omitempty"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`

	StartedAt   time.Time `json:"started_at"`
	WallSeconds float64   `json:"wall_seconds"`

	Stats *metrics.RunStats `json:"run_stats,omitempty"`
	Notes []string          `json:"notes,omitempty"`
}

// BuildManifest assembles a manifest for a completed experiment run.
func BuildManifest(name string, cfg Config, res *Result, stats *metrics.RunStats,
	started time.Time, wall time.Duration) Manifest {
	m := Manifest{
		Experiment:  name,
		Config:      cfg,
		GitDescribe: GitDescribe(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		StartedAt:   started.UTC(),
		WallSeconds: wall.Seconds(),
		Stats:       stats,
	}
	if res != nil {
		m.Title = res.Title
		m.Notes = res.Notes
	}
	return m
}

// WriteJSON emits the manifest as indented JSON.
func (m Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteManifest writes the manifest to dir/<experiment>.manifest.json,
// creating dir if needed, and returns the path written.
func WriteManifest(dir string, m Manifest) (string, error) {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, m.Experiment+".manifest.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// GitDescribe returns `git describe --always --dirty --tags` for the
// working tree, or "" when git or the repository is unavailable (the
// manifest then simply omits the field).
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
