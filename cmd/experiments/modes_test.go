package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// setOf turns a command line into the set of flag names it sets, the way
// run builds it with flag.Visit, without touching the global FlagSet. Every
// name must be a defined flag, so a documented invocation that names a
// deleted flag fails here.
func setOf(t *testing.T, cmdline string) map[string]bool {
	t.Helper()
	set := map[string]bool{}
	for _, tok := range strings.Fields(cmdline) {
		if !strings.HasPrefix(tok, "-") {
			continue // a flag value
		}
		name, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
		if flag.Lookup(name) == nil {
			t.Fatalf("%q: -%s is not a flag", cmdline, name)
		}
		set[name] = true
	}
	return set
}

const steerScript = "10:spike:*:4:200ms,20:kill:ws-0000,25:policy:*:adaptive,30:coalesce:*:100ms,60:restart:ws-0000"

// TestSelectModeDocumentedInvocations: every invocation in scripts/check.sh,
// README.md and EXPERIMENTS.md selects its mode and passes validation, and
// the profile flags are accepted in every mode.
func TestSelectModeDocumentedInvocations(t *testing.T) {
	ctl := "-hosts 1024 -fleet-duration 1s -seed 7 "
	cases := []struct{ cmdline, want string }{
		{"", "experiments"},
		{"-quick", "experiments"},
		{"-j 4", "experiments"},
		{"-quick -spill -strict", "experiments"},
		{"-duration 10m -j 1", "experiments"},
		{"-emit http://127.0.0.1:8080", "experiments"},
		{"-fleet -hosts 64 -fleet-duration 2s -fleet-workers 1", "fleet"},
		{"-fleet -hosts 64 -fleet-duration 2s -fleet-workers 4", "fleet"},
		{"-fleet -emit http://127.0.0.1:8080", "fleet"},
		{ctl + "-steer " + steerScript + " -record-commands c.tcmd -fleet-workers 4", "control"},
		{ctl + "-replay-commands c.tcmd -fleet-workers 1", "control"},
		{ctl + "-replay-commands c.tcmd -fleet-workers 8", "control"},
		{ctl + "-steer " + steerScript + " -stop-window 40 -checkpoint ck.tckp -fleet-workers 4", "control"},
		{"-hosts 64 -fleet-duration 30s -poll http://127.0.0.1:8080", "control"},
		{"-resume ck.tckp -fleet-workers 2", "resume"},
		{"-quick -cpuprofile c.pprof -memprofile m.pprof", "experiments"},
		{"-fleet -hosts 4 -cpuprofile c.pprof -memprofile m.pprof", "fleet"},
		{"-steer " + steerScript + " -cpuprofile c.pprof -memprofile m.pprof", "control"},
		{"-resume ck.tckp -cpuprofile c.pprof -memprofile m.pprof", "resume"},
	}
	for _, tc := range cases {
		m, err := selectMode(setOf(t, tc.cmdline))
		if err != nil {
			t.Errorf("%q: %v", tc.cmdline, err)
			continue
		}
		if m.name != tc.want {
			t.Errorf("%q selected %s, want %s", tc.cmdline, m.name, tc.want)
		}
	}
}

// TestSelectModeRejectsUnreadFlags: a flag the selected mode would ignore,
// and -stop-window without -checkpoint, are errors naming the flag and the
// mode.
func TestSelectModeRejectsUnreadFlags(t *testing.T) {
	cases := []struct {
		cmdline, mode string
		flags         []string
	}{
		{"-hosts 64 -stop-window 40", "experiments", []string{"-hosts", "-stop-window"}},
		{"-stop-window 40", "experiments", []string{"-stop-window"}},
		{"-fleet -hosts 64 -duration 1s -quick -j 3 -spill", "fleet", []string{"-duration", "-quick", "-j", "-spill"}},
		{"-fleet -strict", "fleet", []string{"-strict"}},
		{"-steer 1:kill:ws-0000 -emit http://127.0.0.1:1", "control", []string{"-emit"}},
		{"-fleet -steer 1:kill:ws-0000", "control", []string{"-fleet"}},
		{"-checkpoint ck.tckp -quick", "control", []string{"-quick"}},
		{"-resume ck.tckp -hosts 64", "resume", []string{"-hosts"}},
		{"-resume ck.tckp -seed 7 -fleet-duration 1s", "resume", []string{"-seed", "-fleet-duration"}},
		{"-resume ck.tckp -emit http://127.0.0.1:1", "resume", []string{"-emit"}},
		{"-resume ck.tckp -replay-commands c.tcmd", "resume", []string{"-replay-commands"}},
		{"-steer " + steerScript + " -stop-window 40", "control", []string{"-stop-window", "-checkpoint"}},
		{"-resume ck.tckp -stop-window 40", "resume", []string{"-stop-window", "-checkpoint"}},
	}
	for _, tc := range cases {
		m, err := selectMode(setOf(t, tc.cmdline))
		if err == nil {
			t.Errorf("%q: accepted, want an error", tc.cmdline)
			continue
		}
		if m.name != tc.mode || !strings.Contains(err.Error(), tc.mode) {
			t.Errorf("%q: mode %s, error %q; want mode %s named", tc.cmdline, m.name, err, tc.mode)
		}
		for _, f := range tc.flags {
			if !strings.Contains(err.Error(), f+" ") {
				t.Errorf("%q: error %q does not name %s", tc.cmdline, err, f)
			}
		}
	}
}

// TestModeTableFlags: every flag the command defines is read by some mode,
// is a profile flag, or is one of the two that exit before a mode is
// selected; every flag a row names is defined.
func TestModeTableFlags(t *testing.T) {
	for _, m := range modes {
		for _, name := range slices.Concat(m.flags, m.selectors) {
			if flag.Lookup(name) == nil {
				t.Errorf("mode %s names undefined flag -%s", m.name, name)
			}
		}
	}
	flag.VisitAll(func(f *flag.Flag) {
		switch {
		case f.Name == "version", f.Name == "list", slices.Contains(profileFlags, f.Name),
			strings.HasPrefix(f.Name, "test."): // the test binary's own flags
			return
		}
		if readers(f.Name)[0] == "none" {
			t.Errorf("-%s is read by no mode", f.Name)
		}
	})
}
