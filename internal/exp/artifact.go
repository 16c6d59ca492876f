package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"meecc/internal/trace"
)

// SchemaVersion identifies the artifact/manifest JSON layout. Bump it on
// any breaking change; consumers should reject versions they don't know.
const SchemaVersion = 1

// Artifact is the deterministic payload of a run: the spec, every
// per-trial result in canonical order, and the per-cell aggregates.
// Marshalling an Artifact for a given spec yields byte-identical JSON at
// any worker count.
type Artifact struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name"`
	Study         string `json:"study"`
	BaseSeed      uint64 `json:"base_seed"`
	TrialsPerCell int    `json:"trials_per_cell"`
	// Params and Axes echo the spec so an artifact is self-describing.
	Params map[string]string `json:"params,omitempty"`
	Axes   []Axis            `json:"axes"`
	// Partial marks a cancelled run: some trials never started and carry
	// SkippedErr instead of metrics.
	Partial bool           `json:"partial,omitempty"`
	Cells   []ArtifactCell `json:"cells"`
	Trials  []TrialResult  `json:"trials"`
}

// ArtifactCell is one aggregated grid cell in the artifact.
type ArtifactCell struct {
	Key      string                `json:"key"`
	Params   []Param               `json:"params"`
	Trials   int                   `json:"trials"`
	Failures int                   `json:"failures"`
	Stats    map[string]trace.Stat `json:"stats"`
}

// Manifest is the run's non-deterministic envelope: provenance
// (git revision, creation time) and execution shape (workers, wall time),
// plus a hash binding it to the artifact it describes.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name"`
	Study         string `json:"study"`
	GitRev        string `json:"git_rev"`
	BaseSeed      uint64 `json:"base_seed"`
	// SpecSHA256 is the spec's content hash (Spec.Hash): the run's
	// deterministic identity, comparable across checkouts and hosts.
	SpecSHA256    string `json:"spec_sha256"`
	Axes          []Axis `json:"axes"`
	Cells         int    `json:"cells"`
	TrialsPerCell int    `json:"trials_per_cell"`
	FailedTrials  int    `json:"failed_trials"`
	Partial       bool   `json:"partial,omitempty"`
	Workers       int    `json:"workers"`
	WallMS        int64  `json:"wall_ms"`
	CreatedAt     string `json:"created_at"`
	// ArtifactSHA256 is the hex digest of the artifact file's bytes.
	ArtifactSHA256 string `json:"artifact_sha256"`
}

// Artifact assembles the deterministic artifact for the report.
func (r *Report) Artifact() *Artifact {
	a := &Artifact{
		SchemaVersion: SchemaVersion,
		Name:          r.Spec.Name,
		Study:         r.Spec.Study,
		BaseSeed:      r.Spec.BaseSeed,
		TrialsPerCell: r.Spec.Trials,
		Params:        r.Spec.Params,
		Axes:          r.Spec.Axes,
		Partial:       r.Partial,
		Trials:        r.Trials,
	}
	if a.Axes == nil {
		a.Axes = []Axis{}
	}
	a.Cells = make([]ArtifactCell, len(r.Cells))
	for i, c := range r.Cells {
		a.Cells[i] = ArtifactCell{
			Key:      c.Key,
			Params:   c.Cell.Params,
			Trials:   c.Trials,
			Failures: c.Failures,
			Stats:    c.Stats,
		}
	}
	return a
}

// MarshalArtifact renders the artifact as canonical indented JSON.
// encoding/json sorts map keys, so the bytes are a pure function of the
// artifact's content.
func MarshalArtifact(a *Artifact) ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// UnmarshalArtifact parses an artifact produced by MarshalArtifact and
// validates its schema version — the read side used by `meecc inspect`.
func UnmarshalArtifact(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	if a.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("exp: artifact schema version %d, want %d", a.SchemaVersion, SchemaVersion)
	}
	return &a, nil
}

// GitRev returns the repository's HEAD revision (with a "-dirty" suffix
// when the worktree has changes), or "unknown" outside a git checkout.
func GitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(status) > 0 {
		rev += "-dirty"
	}
	return rev
}

// WriteArtifacts writes <name>.json (the deterministic artifact) and
// <name>.manifest.json (the run manifest) under dir, creating it if
// needed. It returns the two paths.
func WriteArtifacts(dir string, r *Report) (artifactPath, manifestPath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	art, err := MarshalArtifact(r.Artifact())
	if err != nil {
		return "", "", fmt.Errorf("exp: marshalling artifact: %w", err)
	}
	artifactPath = filepath.Join(dir, r.Spec.Name+".json")
	if err := writeFile(artifactPath, art); err != nil {
		return "", "", err
	}

	sum := sha256.Sum256(art)
	man := &Manifest{
		SchemaVersion:  SchemaVersion,
		Name:           r.Spec.Name,
		Study:          r.Spec.Study,
		GitRev:         GitRev(),
		BaseSeed:       r.Spec.BaseSeed,
		SpecSHA256:     r.Spec.Hash(),
		Axes:           r.Spec.Axes,
		Cells:          len(r.Cells),
		TrialsPerCell:  r.Spec.Trials,
		FailedTrials:   r.Failures(),
		Partial:        r.Partial,
		Workers:        r.Workers,
		WallMS:         r.WallTime.Milliseconds(),
		CreatedAt:      time.Now().UTC().Format(time.RFC3339),
		ArtifactSHA256: hex.EncodeToString(sum[:]),
	}
	if man.Axes == nil {
		man.Axes = []Axis{}
	}
	mb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return "", "", fmt.Errorf("exp: marshalling manifest: %w", err)
	}
	manifestPath = filepath.Join(dir, r.Spec.Name+".manifest.json")
	if err := writeFile(manifestPath, append(mb, '\n')); err != nil {
		return "", "", err
	}
	return artifactPath, manifestPath, nil
}

// writeFile writes data, propagating Close errors (a short write can
// surface only at Close).
func writeFile(path string, data []byte) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = f.Write(data)
	return err
}
