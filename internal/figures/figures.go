// Package figures renders the paper's evaluation: one table entry per
// figure, keyed by id, that prints a terminal rendition and, given an output
// directory, writes the figure's CSV and experiment artifacts. cmd/figures
// runs entries by id, and meecc's study subcommands (sweep, noise, latency,
// stealth, overhead, timing, activity) are aliases onto them, so each figure
// has exactly one renderer.
//
// The package also holds the commands' one copy of the grid runner (worker
// pool with a live progress line and SIGINT drain) and of the observer
// set-up and teardown behind -metrics, -metricsout and -trace.
package figures

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"meecc"
	"meecc/internal/exp"
	"meecc/internal/obs"
)

// Env is what a figure renders with: the settings both commands take from
// their flags, and where the rendering goes.
type Env struct {
	Seed    uint64
	Trials  int          // trials per grid cell (7, 8); eviction tests per candidate size (4)
	Bits    int          // payload bits (7, M)
	Window  meecc.Cycles // timing window (8, S)
	Workers int          // grid worker goroutines (0 = GOMAXPROCS)
	OutDir  string       // CSVs, artifacts and manifests go here ("" = write no files)

	Metrics    bool   // report metrics after each single run; embed snapshots in grid artifacts
	MetricsOut string // write each single run's metrics snapshot JSON to this file
	TracePath  string // write each single run's timeline here (.csv = CSV, else Chrome JSON)

	Stdout, Stderr io.Writer
}

// table lists every figure in the order "all" renders them.
var table = []struct {
	id     string
	render func(*Env) error
}{
	{"2", fig2},
	{"4", fig4},
	{"5", fig5},
	{"6a", fig6a},
	{"6b", fig6b},
	{"7", fig7},
	{"8", fig8},
	{"M", figM},
	{"E", figE},
	{"P", figP},
	{"S", figS},
	{"O", figO},
	{"A", figA},
	{"D", figD},
}

// allIDs returns every figure id in table order.
func allIDs() []string {
	ids := make([]string, len(table))
	for i, f := range table {
		ids[i] = f.id
	}
	return ids
}

// Select resolves a comma-separated figure list, matched case-insensitively,
// to ids in table order. "all" selects every figure but must stand alone; an
// id that is not in the table is an error naming the valid ones.
func Select(list string) ([]string, error) {
	if list == "all" {
		return allIDs(), nil
	}
	want := map[string]bool{}
	for _, w := range strings.Split(list, ",") {
		id, ok := lookup(w)
		if !ok {
			return nil, fmt.Errorf("unknown figure %q (valid: %s; or all on its own)", w, strings.Join(allIDs(), ", "))
		}
		want[id] = true
	}
	var ids []string
	for _, f := range table {
		if want[f.id] {
			ids = append(ids, f.id)
		}
	}
	return ids, nil
}

// lookup returns the table id matching w case-insensitively.
func lookup(w string) (string, bool) {
	for _, f := range table {
		if strings.EqualFold(w, f.id) {
			return f.id, true
		}
	}
	return "", false
}

// Run renders the figure with the given id.
func (e *Env) Run(id string) error {
	for _, f := range table {
		if f.id == id {
			return f.render(e)
		}
	}
	return fmt.Errorf("unknown figure %q", id)
}

// Observer returns a fresh observer when Metrics, MetricsOut or TracePath
// asks for one, or nil (all instrumentation off). Each single run takes its
// own, so it reports its own counters and timeline; FinishObs emits them.
func (e *Env) Observer() *obs.Observer {
	if !e.Metrics && e.MetricsOut == "" && e.TracePath == "" {
		return nil
	}
	o := obs.NewObserver()
	if e.TracePath != "" {
		o.WithTracer(0)
	}
	return o
}

// FinishObs emits whatever the observability settings asked for: a full
// text report (including diagnostic scheduler counters) on Stdout, a
// snapshot JSON file, and a trace export picked by file extension.
func (e *Env) FinishObs(o *obs.Observer) error {
	if o == nil {
		return nil
	}
	snap := o.SnapshotAll()
	if e.Metrics {
		fmt.Fprintln(e.Stdout)
		snap.Render(e.Stdout)
	}
	if e.MetricsOut != "" {
		if err := os.WriteFile(e.MetricsOut, snap.Encode(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(e.Stdout, "metrics: %s\n", e.MetricsOut)
	}
	if e.TracePath == "" {
		return nil
	}
	f, err := os.Create(e.TracePath)
	if err != nil {
		return err
	}
	tr := o.Tracer()
	if strings.HasSuffix(e.TracePath, ".csv") {
		err = tr.WriteCSV(f)
	} else {
		err = tr.WriteChromeJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(e.Stdout, "trace: %s (%d events", e.TracePath, tr.Len())
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(e.Stdout, ", %d oldest overwritten", d)
	}
	fmt.Fprintln(e.Stdout, ")")
	return nil
}

// RunGrid executes a spec on the harness with a live progress line on
// Stderr. A first SIGINT starts no new trial and drains in-flight trials so
// a partial artifact can still be written; a second one kills the process
// the usual way.
func (e *Env) RunGrid(spec *exp.Spec) (*exp.Report, error) {
	if e.Metrics {
		spec.Metrics = true
	}
	if e.TracePath != "" {
		fmt.Fprintln(e.Stderr, "note: -trace records a single run; grids embed per-trial metrics snapshots in the artifact instead (use -metrics)")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt)
	defer signal.Stop(sigCh)
	go func() {
		select {
		case <-ctx.Done():
			return
		case <-sigCh:
		}
		fmt.Fprintf(e.Stderr, "\ninterrupt: draining in-flight trials (interrupt again to kill)\n")
		cancel()
		signal.Stop(sigCh)
	}()
	progress := func(p exp.Progress) {
		fmt.Fprintf(e.Stderr, "\r%s: %d/%d trials, %d/%d cells, eta %s   ",
			spec.Name, p.Done, p.Total, p.CellsDone, p.Cells, p.ETA().Round(1e9))
	}
	rep, err := exp.RunSpec(spec, exp.Config{Workers: e.Workers, OnProgress: progress, Context: ctx})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(e.Stderr)
	return rep, nil
}

// grid runs a figure's grid and, with OutDir, persists its artifact and
// manifest.
func (e *Env) grid(spec *exp.Spec) (*exp.Report, error) {
	rep, err := e.RunGrid(spec)
	if err != nil || e.OutDir == "" {
		return rep, err
	}
	if _, _, err := exp.WriteArtifacts(e.OutDir, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// writeCSV creates OutDir/name and hands it to write; without OutDir it
// writes nothing.
func (e *Env) writeCSV(name string, write func(io.Writer) error) (err error) {
	if e.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(e.OutDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(e.OutDir, name))
	if err != nil {
		return err
	}
	defer func() {
		// A failed flush surfaces only at Close; don't mask it.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f)
}

func (e *Env) header(title string) {
	fmt.Fprintf(e.Stdout, "\n=== %s ===\n", title)
}
