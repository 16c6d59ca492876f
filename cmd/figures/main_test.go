package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // substring the diagnostics must contain
	}{
		{[]string{"-fig", "9"}, 2, `unknown figure "9" (valid: 2, 4, 5, 6a, 6b, 7, 8, M, E, P, S, O, A, D; or all on its own)`},
		{[]string{"-fig", "all,7"}, 2, `unknown figure "all"`},
		{[]string{"-nosuchflag"}, 2, "flag provided but not defined"},
		{[]string{"-h"}, 0, "-trials int"},
		{[]string{"-fig", "2"}, 0, ""},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"figures"}, tc.args...), &stdout, &stderr)
		if code != tc.code {
			t.Errorf("figures %v exited %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("figures %v stderr %q does not contain %q", tc.args, stderr.String(), tc.stderr)
		}
		if code != 0 && stdout.Len() > 0 {
			t.Errorf("figures %v printed %q before failing", tc.args, stdout.String())
		}
	}
}
