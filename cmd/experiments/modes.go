package main

import (
	"flag"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"timerstudy/internal/workloads"
)

// The command line: every flag, and the mode table that says which flags
// each mode reads. A flag set on the command line that the selected mode
// does not read is an error, not a silent no-op.

var (
	durFlag   = flag.Duration("duration", 30*time.Minute, "virtual duration per trace")
	seedFlag  = flag.Int64("seed", 1, "simulation seed")
	quick     = flag.Bool("quick", false, "use 2-minute traces")
	workersFl = flag.Int("j", 0, "workload worker pool size (0 = GOMAXPROCS)")
	spillFl   = flag.Bool("spill", false, "stream each trace to a temp file during the run and analyze it from disk (bounded memory)")
	strictFl  = flag.Bool("strict", false, "exit nonzero if any run dropped trace records")
	emitFl    = flag.String("emit", "", "stream traces to a live timerstat -serve service at this base URL while running")
	cpuproFl  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memproFl  = flag.String("memprofile", "", "write a pprof allocation profile to this file at exit")
	versionFl = flag.Bool("version", false, "print build version and exit")
	listFl    = flag.Bool("list", false, "list modes and the flags each reads, workloads and steering commands, then exit")

	fleetFl        = flag.Bool("fleet", false, "run the datacenter fleet scenario instead of the single-host experiments")
	hostsFl        = flag.Int("hosts", 1024, "fleet: total host count (1/8 webservers, rest desktops)")
	fleetWorkersFl = flag.Int("fleet-workers", 0, "fleet: parallel host workers (0 = GOMAXPROCS); a workers=1 verification pass runs first when >1")
	fleetDurFl     = flag.Duration("fleet-duration", 30*time.Second, "fleet: virtual duration")

	steerFl         = flag.String("steer", "", "steer the fleet: comma-separated window:kind:host[:arg[:dur]] commands (see -list)")
	recordCmdFl     = flag.String("record-commands", "", "write the applied command log (TCMD) to this file at exit")
	replayCmdFl     = flag.String("replay-commands", "", "replay a recorded command log (TCMD) from this file")
	checkpointFl    = flag.String("checkpoint", "", "write a checkpoint (TCKP) to this file (at -stop-window, or at run end)")
	stopWindowFl    = flag.Int("stop-window", 0, "stop the controlled run at this window boundary (requires -checkpoint)")
	resumeFl        = flag.String("resume", "", "resume a controlled run from this checkpoint file")
	keyframeEveryFl = flag.Int("keyframe-every", 0, "automatic keyframe cadence in windows (0 = control-plane default)")
	pollFl          = flag.String("poll", "", "poll a timerstat -serve command hub at this base URL for steering commands")
)

// mode is one row of the mode table.
type mode struct {
	name      string
	selectors []string // setting any of these selects the mode
	flags     []string // every flag the mode reads, selectors included
	help      string   // the mode's -list line
	run       func() int
}

// profileFlags wrap every mode (see run).
var profileFlags = []string{"cpuprofile", "memprofile"}

// steerFlags are read by a control run, whether new or resumed.
var steerFlags = []string{"steer", "record-commands", "checkpoint", "stop-window", "keyframe-every", "poll", "fleet-workers"}

// modes is the mode table, in precedence order: the first row with a
// selector set runs, so -resume outranks the control flags and both outrank
// -fleet. The last row has no selector and is the default.
var modes = []mode{
	{
		name:      "resume",
		selectors: []string{"resume"},
		flags:     slices.Concat([]string{"resume"}, steerFlags),
		help:      "continue a checkpointed control run; hosts, seed and duration come from the checkpoint",
		run:       runControl,
	},
	{
		name:      "control",
		selectors: []string{"steer", "replay-commands", "checkpoint", "poll", "record-commands"},
		flags:     slices.Concat([]string{"replay-commands", "hosts", "seed", "fleet-duration"}, steerFlags),
		help:      "steered fleet under the deterministic control plane",
		run:       runControl,
	},
	{
		name:      "fleet",
		selectors: []string{"fleet"},
		flags:     []string{"fleet", "hosts", "seed", "fleet-workers", "fleet-duration", "emit"},
		help:      "parallel datacenter fleet with determinism verification",
		run:       runFleet,
	},
	{
		name:  "experiments",
		flags: []string{"duration", "quick", "seed", "j", "spill", "strict", "emit"},
		help:  "the paper's evaluation traces (Tables 1-3, Figures 1-11, Sections 2-5)",
		run:   runExperiments,
	},
}

// selectMode picks the mode the set flags select and checks that it reads
// every one of them. It runs before anything is simulated.
func selectMode(set map[string]bool) (mode, error) {
	m := modes[len(modes)-1]
rows:
	for _, row := range modes {
		for _, s := range row.selectors {
			if set[s] {
				m = row
				break rows
			}
		}
	}
	var names []string
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	var unread []string
	for _, name := range names {
		if !slices.Contains(m.flags, name) && !slices.Contains(profileFlags, name) {
			unread = append(unread, fmt.Sprintf("-%s (read by: %s)", name, strings.Join(readers(name), ", ")))
		}
	}
	if len(unread) > 0 {
		return m, fmt.Errorf("the %s mode does not read %s", m.name, strings.Join(unread, ", "))
	}
	if set["stop-window"] && !set["checkpoint"] {
		return m, fmt.Errorf("-stop-window without -checkpoint would discard the %s run", m.name)
	}
	return m, nil
}

// readers names the modes that read the named flag.
func readers(name string) []string {
	var out []string
	for _, m := range modes {
		if slices.Contains(m.flags, name) {
			out = append(out, m.name)
		}
	}
	if len(out) == 0 {
		out = []string{"none"}
	}
	return out
}

// runList enumerates what this binary can run: the mode table, the
// workloads and the steering commands.
func runList() int {
	fmt.Println("modes (the first whose selector is set runs; a flag it does not read exits 2):")
	for _, m := range modes {
		sel := "(default)"
		if len(m.selectors) > 0 {
			sel = "-" + strings.Join(m.selectors, " -")
		}
		fmt.Printf("  %-12s %s\n", m.name, m.help)
		fmt.Printf("  %-12s selected by: %s\n", "", sel)
		fmt.Printf("  %-12s reads: -%s\n", "", strings.Join(slices.Concat(m.flags, profileFlags), " -"))
	}
	fmt.Println()
	fmt.Println("workloads (single-host traces):")
	for _, os := range []struct {
		name  string
		names []string
	}{{"linux", workloads.LinuxWorkloads()}, {"vista", workloads.VistaWorkloads()}} {
		for _, w := range os.names {
			fmt.Printf("  %s/%s\n", os.name, w)
		}
	}
	fmt.Println()
	fmt.Println("steering commands (window:kind:host[:arg[:dur]], host \"*\" = fleet-wide):")
	fmt.Println("  spike     multiply desktop request rate by arg for dur (e.g. 10:spike:*:4:500ms)")
	fmt.Println("  kill      power a host off at the boundary (20:kill:ws-0000)")
	fmt.Println("  restart   power a killed host back on (60:restart:ws-0000)")
	fmt.Println("  policy    request-timeout policy: fixed | adaptive (25:policy:*:adaptive)")
	fmt.Println("  coalesce  periodic-timer coalescing window (30:coalesce:*:100ms)")
	return 0
}
