package exp

import (
	"bytes"
	"strings"
	"testing"
)

// TestChannelStudyDeterministicAcrossWorkers runs the real covert-channel
// study — not a fake runner — at two worker counts and asserts the
// aggregated JSON is byte-identical: the acceptance property behind
// `figures -fig 7 -trials N`.
func TestChannelStudyDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel simulations in -short mode")
	}
	spec := &Spec{
		Name:     "channel-determinism",
		Study:    "channel",
		BaseSeed: 42,
		Trials:   2,
		Params:   map[string]string{"bits": "16", "pattern": "alternating"},
		Axes:     []Axis{{Name: "window", Values: []string{"15000"}}},
	}
	var artifacts [][]byte
	for _, w := range []int{1, 8} {
		rep, err := RunSpec(spec, Config{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if n := rep.Failures(); n > 0 {
			t.Fatalf("workers=%d: %d channel trials failed", w, n)
		}
		b, err := MarshalArtifact(rep.Artifact())
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, b)
	}
	if !bytes.Equal(artifacts[0], artifacts[1]) {
		t.Fatalf("channel artifacts differ between workers=1 and workers=8:\n%s\n---\n%s",
			artifacts[0], artifacts[1])
	}
}

// TestChannelStudyUnknownPolicyIsAParameterError: a spec naming an unknown
// MEE policy fails every trial with the parameter error, not with a boot
// panic whose recorded goroutine stack would make the artifact differ
// between worker counts.
func TestChannelStudyUnknownPolicyIsAParameterError(t *testing.T) {
	spec := &Spec{
		Name:     "bad-policy",
		Study:    "channel",
		BaseSeed: 42,
		Trials:   2,
		Params:   map[string]string{"bits": "16", "policy": "bogus"},
		Axes:     []Axis{{Name: "window", Values: []string{"10000", "15000"}}},
	}
	var artifacts [][]byte
	for _, w := range []int{1, 2} {
		rep, err := RunSpec(spec, Config{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range rep.Trials {
			if !strings.Contains(tr.Err, `policy="bogus"`) || strings.Contains(tr.Err, "panicked") {
				t.Fatalf("workers=%d: trial error %q, want the policy parameter error", w, tr.Err)
			}
		}
		b, err := MarshalArtifact(rep.Artifact())
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, b)
	}
	if !bytes.Equal(artifacts[0], artifacts[1]) {
		t.Fatalf("artifacts differ between workers=1 and workers=2:\n%s\n---\n%s", artifacts[0], artifacts[1])
	}
}

func TestChannelStudyMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel simulation in -short mode")
	}
	rep, err := RunSpec(&Spec{
		Name:     "channel-metrics",
		Study:    "channel",
		BaseSeed: 42,
		Trials:   1,
		Params:   map[string]string{"bits": "16", "pattern": "alternating", "window": "15000"},
	}, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.Failures != 0 {
		t.Fatalf("channel trial failed: %+v", rep.Trials)
	}
	for _, metric := range []string{"kbps", "error_rate", "bit_errors", "bits", "eviction_set", "setup_mcyc"} {
		if c.Stat(metric).N != 1 {
			t.Errorf("metric %s missing from channel trial", metric)
		}
	}
	if got := c.Stat("bits").Mean; got != 16 {
		t.Errorf("bits metric %v, want 16", got)
	}
	if e := c.Stat("error_rate").Mean; e < 0 || e > 1 {
		t.Errorf("error_rate %v out of range", e)
	}
	if k := c.Stat("kbps").Mean; k < 20 || k > 40 {
		t.Errorf("kbps %v, want ~33 at the 15000-cycle window", k)
	}
}

func TestStudiesRegistry(t *testing.T) {
	names := Studies()
	want := map[string]bool{"channel": false, "capacity": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("study %q not registered (have %v)", n, names)
		}
	}
}
