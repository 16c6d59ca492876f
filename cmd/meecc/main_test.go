package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"meecc/internal/figures"
)

func TestSplitCommand(t *testing.T) {
	for _, tc := range []struct {
		args []string
		cmd  string
		rest string
	}{
		{nil, "send", ""},
		{[]string{"-msg", "hi"}, "send", "-msg hi"},
		{[]string{"sweep", "-trials", "2"}, "sweep", "-trials 2"},
		{[]string{"", "-seed", "1"}, "", "-seed 1"},
		{[]string{"-"}, "send", "-"},
	} {
		cmd, rest := splitCommand(tc.args)
		if cmd != tc.cmd || strings.Join(rest, " ") != tc.rest {
			t.Errorf("splitCommand(%q) = %q, %q; want %q, %q", tc.args, cmd, rest, tc.cmd, tc.rest)
		}
	}
}

func TestCommandLookup(t *testing.T) {
	for _, name := range []string{"", "figures", "Sweep", "-h"} {
		if _, ok := command(name); ok {
			t.Errorf("command(%q) resolved; want an unknown command", name)
		}
	}
	for name := range commands {
		if _, ok := command(name); !ok {
			t.Errorf("command(%q) did not resolve", name)
		}
	}
	for alias, id := range figureAliases {
		if _, ok := commands[alias]; ok {
			t.Errorf("%s is both a command and a figure alias", alias)
		}
		if ids, err := figures.Select(id); err != nil || len(ids) != 1 || ids[0] != id {
			t.Errorf("alias %s names figure %q, which is not in the table (%v)", alias, id, err)
		}
		if _, ok := command(alias); !ok {
			t.Errorf("command(%q) did not resolve", alias)
		}
	}
}

// TestFlagSets pins which flags each subcommand accepts: the ones its code
// reads, plus -cpuprofile and -memprofile.
func TestFlagSets(t *testing.T) {
	const obsFlags = " metrics metricsout trace"
	want := map[string]string{
		"send":    "msg window seed noise policy reliable inband lanes v" + obsFlags,
		"batch":   "spec out workers metrics",
		"chaos":   "seed trials faults intensities payload out workers metrics",
		"inspect": "",
		"serve": "addr storedir storemax journal maxruns maxpending runtimeout grace" +
			" readtimeout writetimeout idletimeout loglevel logformat debugaddr workers",
		"submit": "spec addr out",
		"top":    "addr interval once require",
		"hash":   "spec",
	}
	for alias := range figureAliases {
		want[alias] = "seed trials bits window workers" + obsFlags
	}
	if len(want) != len(commands)+len(figureAliases) {
		t.Fatalf("%d rows for %d subcommands", len(want), len(commands)+len(figureAliases))
	}
	pairs := 0
	for name, flags := range want {
		cmd, ok := command(name)
		if !ok {
			t.Errorf("no subcommand %q", name)
			continue
		}
		fs, _, _ := declare(name, cmd, &figures.Env{Stdout: io.Discard, Stderr: io.Discard})
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		wantNames := append(strings.Fields(flags), "cpuprofile", "memprofile")
		sort.Strings(wantNames)
		if strings.Join(got, " ") != strings.Join(wantNames, " ") {
			t.Errorf("%s declares %v, want %v", name, got, wantNames)
		}
		pairs += len(got)
	}
	if pairs != 133 {
		t.Errorf("%d (subcommand, flag) pairs, want 133", pairs)
	}
}

// TestServeStoreMaxDefault pins serve's store bound: 256 MiB unless
// -storemax says otherwise.
func TestServeStoreMaxDefault(t *testing.T) {
	cmd, _ := command("serve")
	fs, _, _ := declare("serve", cmd, &figures.Env{Stdout: io.Discard, Stderr: io.Discard})
	if got := fs.Lookup("storemax").DefValue; got != "268435456" {
		t.Errorf("-storemax defaults to %s, want 268435456 (256 MiB)", got)
	}
}

func TestRunExitCodes(t *testing.T) {
	smoke := filepath.Join("..", "..", "examples", "specs", "smoke.json")
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // substring the diagnostics must contain
	}{
		{[]string{"batch", "-seed", "7"}, 2, "flag provided but not defined: -seed"},
		{[]string{"hash", "-spec", smoke, "-trials", "9"}, 2, "flag provided but not defined: -trials"},
		{[]string{"top", "-msg", "x"}, 2, "flag provided but not defined: -msg"},
		{[]string{"serve", "-metrics"}, 2, "flag provided but not defined: -metrics"},
		{[]string{"hash", "-spec", smoke, "extra"}, 2, `meecc hash: unexpected argument "extra" after the flags`},
		// A leading flag makes the command send, so "sweep" is left over.
		{[]string{"-cpuprofile", "cpu.pprof", "sweep", "-trials", "3"}, 2, `meecc send: unexpected argument "sweep"`},
		{[]string{"inspect"}, 2, "usage: meecc inspect FILE"},
		{[]string{"inspect", smoke, smoke}, 2, "usage: meecc inspect FILE"},
		{[]string{"send", "-lanes", "2", "-inband"}, 2, "-reliable, -inband and -lanes 2 are separate modes"},
		{[]string{"send", "-reliable", "-inband"}, 2, "-reliable, -inband and -lanes 2 are separate modes"},
		{[]string{"-lanes", "2", "-inband", "-reliable"}, 2, "-reliable, -inband and -lanes 2 are separate modes"},
		{[]string{"send", "-lanes", "0"}, 2, "-lanes 0: want 1 or 2"},
		{[]string{"send", "-lanes", "3", "-reliable"}, 2, "-lanes 3: want 1 or 2"},
		{[]string{"send", "-reliable", "-v"}, 2, "-v prints the raw channel's per-bit trace"},
		{[]string{"send", "-inband", "-v"}, 2, "-v prints the raw channel's per-bit trace"},
		{[]string{"send", "-lanes", "2", "-v"}, 2, "-v prints the raw channel's per-bit trace"},
		{[]string{"nosuch"}, 2, `meecc: unknown command "nosuch"`},
		{[]string{"-h"}, 0, "-msg string"},
		{[]string{"batch", "-h"}, 0, "-spec string"},
		{[]string{"hash"}, 1, "meecc: hash requires -spec FILE"},
		{[]string{"send", "-msg", ""}, 1, "meecc: core: empty payload: no bits to transmit"},
		{[]string{"send", "-msg", "", "-reliable"}, 1, "meecc: core: resilient transfer of empty payload"},
		{[]string{"hash", "-spec", smoke}, 0, ""},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"meecc"}, tc.args...), &stdout, &stderr)
		if code != tc.code {
			t.Errorf("meecc %q exited %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("meecc %q stderr %q does not contain %q", tc.args, stderr.String(), tc.stderr)
		}
		if code == 2 && stdout.Len() > 0 {
			t.Errorf("meecc %q printed %q before failing", tc.args, stdout.String())
		}
	}
	if _, err := os.Stat("cpu.pprof"); err == nil {
		os.Remove("cpu.pprof")
		t.Error("a command line that exits 2 started a CPU profile")
	}
}

// pinnedCommand is one meecc command line's exact behaviour: its exit code
// and the sha256 of its stdout and of every file it writes in its output
// directory, keyed by file name.
type pinnedCommand struct {
	name   string
	args   string // space-separated; {out}, {root}, {in} and {specs} expand
	code   int
	stdout string
	files  map[string]string
}

// pinnedCommands run in order: the inspect rows read the files that the
// send-obs and batch-smoke rows write. {out} is the row's own output
// directory {root}/NAME; {in} holds one-trial copies of the example specs
// and a malformed artifact; {specs} is examples/specs. Every digest except
// the send -reliable rows' was recorded by running a build of the command
// from before subcommands had their own flag sets, one process per row,
// with the same masks.
var pinnedCommands = []pinnedCommand{
	{"send", "send -msg hi", 0, "c1d86363ae71eb7938cd5c57907913d0ea7a85103a3976bf111c099c3231834f", nil},
	{"send-v", "send -msg hi -v", 0, "e3d5e1e08dfeec15e1ee5008d34a15bdc3b3b43e41972071a0c9f5180c258dce", nil},
	{"send-inband", "send -msg hi -inband", 0, "bedf895dbd4ee61982e04b24ab5afee95486e252bcb2e4c863048478810bdd4e", nil},
	{"send-lanes2", "send -msg hi -lanes 2", 0, "ebac20eb6ad1870121e486f440374f056fe9c59758b9f95eb2906cd7d1d68181", nil},
	{"send-obs", "send -msg hi -metrics -metricsout {out}/metrics.json -trace {out}/trace.json", 0, "8745abd2efe61b963fe9bd8abe91ea37d3f20eb09f249168fdf725d0282d94ff", map[string]string{
		"metrics.json": "275523296eb2c5db8f3059e8bfe6bcc593a0bd9149342067ebb78b77af99d0b4",
		"trace.json":   "97127b4b72fcf3a47fb8aeda3c9fa3c4e2faab1bfbd742a426b77a086f453d4b",
	}},
	{"batch-smoke", "batch -spec {specs}/smoke.json -out {out} -workers 2", 0, "48a1b5e9d05164f125fc876ff923d930e93bd0bb440c9beaf7afbe127e39d1ed", map[string]string{
		"smoke.json":          "42f29382e829f8035e0ecb5c4323be2b99258af01d98dac4eb205f19b48910ed",
		"smoke.manifest.json": "f4c763e03f4f054de024df0ea66454b75bed9c2510f8eb058ea4bdc587ea915f",
	}},
	{"batch-fig7", "batch -spec {in}/fig7.json -out {out} -workers 2", 0, "38d1124f3eadc76f8c1f0427e7d4f0777ad48355d7ea9777cba8c3af32ff1ca8", map[string]string{
		"fig7-batch.json":          "bd7b0a3bca304a67d4278f9eca66468967e14468614e25dc829d6bb6d9758f4d",
		"fig7-batch.manifest.json": "680e5d4d26d177c609507c3f9ccfe35fa0c6b9f35fea683dad3a12d21a768815",
	}},
	{"batch-fig7-paired", "batch -spec {in}/fig7-paired.json -out {out} -workers 2", 0, "a21d40fbb1bfa0e6a09b634e5a69e8c287a4c5c33a58728414e0070583a35dee", map[string]string{
		"fig7-paired.json":          "a6b69357dad8d3f798ef73fc5e3f424a1d19da436e7252f49b80bbee5c2dce20",
		"fig7-paired.manifest.json": "d8a68cf24df31aed6c7b6291e9497a4f5f86a57f627e6dc469937d45b83d4643",
	}},
	{"batch-noise-policy-grid", "batch -spec {in}/noise-policy-grid.json -out {out} -workers 2", 0, "605a1dd2179761f9b8fca6db35e80930a7d2d5af7c34d8da74d05ebbfcdb4af2", map[string]string{
		"noise-policy-grid.json":          "f4ecc409288d95fa0897f222e0ed8d647b88dbeac6cf0ed6d7720efbfbadf32e",
		"noise-policy-grid.manifest.json": "10e4fe43140edd311e1509fcd83d592e8f6c4e4ff59acc4aa9a0e679ac3664a7",
	}},
	{"batch-chaos", "batch -spec {in}/chaos.json -out {out} -workers 2", 0, "fd96c5cb0bc089b454dbb2c18ab95214911720caed7a2bef2e468a9c700d94b9", map[string]string{
		"chaos.json":          "d786594c34a88e7ae4cb99d9548caf2ffc1b09025edc1764c33bd875c281d8b9",
		"chaos.manifest.json": "3832407aaf883221c3e2c803b7c881e7a8c7b7133ef27bf25bd31afae4dc00bf",
	}},
	{"chaos", "chaos -faults migration -intensities 0,4 -trials 1 -payload 4 -out {out} -workers 2", 0, "ae199ae83a824f72b530cda302fd258ededf6de72eb6b20cde6c64a5518a0628", map[string]string{
		"chaos.csv":           "c37a7d30d5d7c771d324e8595dcf0b106d8394ea357a6caf9cdef87895975228",
		"chaos.json":          "4be002bb0f3c8c86961d6bc1e2b9953bf9f8befef6711d5071204f620e64f09b",
		"chaos.manifest.json": "97bd95fbe871daea1b08304dd01072a2d58b73aa40776d29774d7d4bbcafa6e1",
	}},
	{"inspect-artifact", "inspect {root}/batch-smoke/smoke.json", 0, "ad653d4962ff1675a79f2399f474f42f7142f5a9109c9e929347225adef916f4", nil},
	{"inspect-metrics", "inspect {root}/send-obs/metrics.json", 0, "e6bc75afb39d55d9f1d3e773c1869e796c5f02616eaba32cd3bcb7864a72e41a", nil},
	{"inspect-trace", "inspect {root}/send-obs/trace.json", 0, "f7127a26b0f0bb111b987431d7ba7ec8ffb9c68d9eb295129cfda3a956daa722", nil},
	{"inspect-malformed", "inspect {in}/malformed.json", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", nil},
	{"hash", "hash -spec {specs}/smoke.json", 0, "981b2e299a00bade1d456db65b75106b97cb3da55835d2b3758549571ff4af23", nil},
	// Recorded after send -reliable moved onto RunResilient: the default
	// 24-byte message on a clean link and under MEE noise at 4 KB stride,
	// where the session widens its window to deliver; and a 3000-cycle
	// window under that noise, where the session aborts and send prints
	// every action it took.
	{"send-reliable", "send -reliable", 0, "c3bbca861e9e8af162eacac7fb7f4e8a68172a571faad0eff10404916c332281", nil},
	{"send-reliable-mee4k", "send -reliable -noise mee4k", 0, "b19abf25f51a8d321563d2bcfbd6d66ad7f2367dbed15f41e1c4e87bcc2249ca", nil},
	{"send-reliable-fails", "send -msg abcdefgh -reliable -noise mee4k -window 3000", 1, "0942efcad387767fe1b23c957f469204f193efec62988f04fdfb0634590407e0", nil},
}

// manifestFields blanks the manifest fields that differ between runs of the
// same spec, as TestFiguresPinned does: the checkout's revision, the wall
// time and the creation time.
var manifestFields = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`"git_rev": "[^"]*"`), `"git_rev": ""`},
	{regexp.MustCompile(`"wall_ms": [0-9]+`), `"wall_ms": 0`},
	{regexp.MustCompile(`"created_at": "[^"]*"`), `"created_at": ""`},
}

// wallTime matches batch's wall time in its summary line.
var wallTime = regexp.MustCompile(` workers in [^ ]+ \(`)

func digest(name string, data []byte) string {
	if strings.HasSuffix(name, ".manifest.json") {
		for _, f := range manifestFields {
			data = f.re.ReplaceAll(data, []byte(f.repl))
		}
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestCommandsPinned runs every pinned command line in-process and compares
// its exit code, its stdout (with the output root masked as OUT and batch's
// wall time as T) and every file it writes with the pinned digests. A
// change that moves a command's output on purpose re-records its row and
// says why.
func TestCommandsPinned(t *testing.T) {
	root := t.TempDir()
	specs := filepath.Join("..", "..", "examples", "specs")
	in := filepath.Join(root, "in")
	if err := os.Mkdir(in, 0o755); err != nil {
		t.Fatal(err)
	}
	trials := regexp.MustCompile(`"trials": [0-9]+`)
	for _, name := range []string{"fig7.json", "fig7-paired.json", "noise-policy-grid.json", "chaos.json"} {
		data, err := os.ReadFile(filepath.Join(specs, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(in, name), trials.ReplaceAll(data, []byte(`"trials": 1`)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(in, "malformed.json"), []byte(`{"study": "channel", "cells": [`), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, row := range pinnedCommands {
		t.Run(row.name, func(t *testing.T) {
			out := filepath.Join(root, row.name)
			if err := os.Mkdir(out, 0o755); err != nil {
				t.Fatal(err)
			}
			expand := strings.NewReplacer("{out}", out, "{root}", root, "{in}", in, "{specs}", specs)
			args := []string{"meecc"}
			for _, a := range strings.Fields(row.args) {
				args = append(args, expand.Replace(a))
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != row.code {
				t.Errorf("exit %d, want %d\n%s", code, row.code, stderr.Bytes())
			}
			masked := bytes.ReplaceAll(stdout.Bytes(), []byte(root), []byte("OUT"))
			masked = wallTime.ReplaceAll(masked, []byte(" workers in T ("))
			if got := digest("stdout", masked); got != row.stdout {
				t.Errorf("stdout sha256 %s, want %s\n%s", got, row.stdout, masked)
			}
			entries, err := os.ReadDir(out)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, ent := range entries {
				names = append(names, ent.Name())
				data, err := os.ReadFile(filepath.Join(out, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := digest(ent.Name(), data), row.files[ent.Name()]; got != want {
					t.Errorf("%s sha256 %s, want %q", ent.Name(), got, want)
				}
			}
			var want []string
			for name := range row.files {
				want = append(want, name)
			}
			sort.Strings(want)
			if strings.Join(names, " ") != strings.Join(want, " ") {
				t.Errorf("wrote %v, want %v", names, want)
			}
		})
	}
}
