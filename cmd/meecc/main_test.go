package main

import (
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
