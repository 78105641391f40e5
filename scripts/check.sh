#!/usr/bin/env bash
# Full verification: build, vet, race tests, and the repo's own linter.
# CI runs exactly this script; run it before sending a change.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
# The lint fixtures under internal/lint/testdata are deliberately malformed
# or unformatted inputs; everything else must be gofmt-clean.
unformatted="$(find . -name '*.go' -not -path './internal/lint/testdata/*' \
	-not -path './.bench_build/*' -print0 | xargs -0 gofmt -l)"
if [[ -n "$unformatted" ]]; then
	echo "gofmt -l reports unformatted files:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go test -race =="
go test -race ./...

echo "== parallel determinism golden test =="
go test -race -count=2 -run 'TestParallelMatchesSerial|TestRunAllDeterministicAcrossWorkers' \
	./cmd/experiments ./internal/workloads

echo "== fleet dispatch-gate determinism golden test =="
# A run whose window load crosses the fleet's serial/pooled dispatch
# threshold in both directions must match the serial run at every worker
# count, with both dispatch branches exercised.
go test -race -count=2 -run 'TestDispatchGateDeterminism' ./internal/fleet

echo "== spill-vs-memory determinism golden test =="
# The streaming trace path (v2 spill files) must render byte-identical
# tables and figures to the in-memory path.
go test -race -count=2 -run 'TestSpillMatchesMemory' ./cmd/experiments

echo "== serial-vs-parallel analysis determinism golden test =="
# Pipeline.RunParallel must produce byte-identical reports to Pipeline.Run
# at every worker count, over buffers and v2 streams, including chunk sizes
# that straddle origin frames and timer lifecycles.
go test -race -count=2 -run 'TestRunParallelMatchesRunAcrossWorkers|TestRunParallelChunkTorture|TestStreamForEachChunkMatchesSerial' \
	./internal/analysis ./internal/trace

echo "== allocation regression (steady-state hot paths must be alloc-free) =="
# Run WITHOUT -race: the race detector instruments allocations and would
# make AllocsPerRun report false positives.
go test -count=1 -run 'TestEngineZeroAllocSteadyState|TestEventAllocsPlateau|TestLogZeroAlloc|TestLogBytesPerRecord|TestStreamWriterLogZeroAlloc|TestShardRecordZeroAlloc|TestShardConstantValueZeroAlloc|TestEachZeroAlloc|TestModDelTickZeroAllocNoHZOff' \
	./internal/sim ./internal/trace ./internal/analysis ./internal/fleet ./internal/jiffies

echo "== codec fuzz smoke (10s per format) =="
go test -run '^$' -fuzz 'FuzzDecodeV2$' -fuzztime=10s ./internal/trace
go test -run '^$' -fuzz 'FuzzReadCheckpoint' -fuzztime=10s ./internal/trace
go test -run '^$' -fuzz 'FuzzDecodeCommands' -fuzztime=10s ./internal/control

echo "== benchmark smoke (1 iteration each) =="
go test -run '^$' -bench . -benchtime=1x ./...

echo "== perfbench: vet and unit tests (nested module) =="
# perfbench is a module of its own, so the root's go build/vet/test ./...
# never compile it. Build it here in run.sh's offline environment (build
# cache under .bench_build/, no proxy, no toolchain download) so an internal
# API change cannot break the benchmark unnoticed.
bench_out="$PWD/.bench_build"
bench_env=(GOCACHE="$bench_out/gocache" GOMODCACHE="$bench_out/gomod" GOPATH="$bench_out/gopath"
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off GOWORK=off)
(cd perfbench && env "${bench_env[@]}" go vet ./... && env "${bench_env[@]}" go test ./...)

echo "== perfbench smoke (every workload, seed 1, 1 s; must report correct) =="
# At seed 1 "correct" includes the committed paper-eval and fleet digests,
# the serial==parallel fleet checks, the checkpoint-resume digest and
# serve-live's quiesced==offline comparison.
for workload in paper-eval fleet-64 fleet-1024 serve-live; do
	result="$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
	if [[ "$result" != *'"correct":true'* ]]; then
		echo "PERFBENCH SMOKE: $workload did not report correct: $result" >&2
		exit 1
	fi
	echo "perfbench $workload correct"
done

echo "== timerlint (full analyzer suite) =="
go run ./cmd/timerlint ./...

echo "== timerlint allocfree gate (annotated hot paths must have no heap escapes) =="
# Redundant with the full run above, but asserted separately so an alloc
# regression on the engine schedule/expire path, the kernel timer
# mod/del/tick path, the trace encoders, or the analysis per-record fold
# fails with an unmistakable step name.
go run ./cmd/timerlint -run allocfree ./internal/sim ./internal/jiffies ./internal/trace ./internal/analysis

echo "== timerlint serve gates (stream ingest + producer sink) =="
# The live service and the HTTP producer sink hold the retry/backoff and
# merge-cadence tunables: magictimeout audits their timeouts.go provenance
# registries, rawsink/goroutinecapture audit the ingest handlers and the
# sink's sender goroutine.
go run ./cmd/timerlint -run rawsink,goroutinecapture,magictimeout ./internal/serve ./internal/trace

echo "== timerlint fleet gates (alloc-free window advance, no shared-state captures) =="
# The fleet's worker-pool closures and the netsim fabric they read are the
# two places a shared-state capture would silently break byte-identical
# traces; goroutinecapture audits them, allocfree covers the per-window
# dispatch, advance and route path and the built-in host models.
go run ./cmd/timerlint -run allocfree,goroutinecapture ./internal/fleet ./internal/netsim

echo "== timerlint control gates (window-boundary apply path, bounds provenance) =="
# The control plane drains commands at the fleet barrier and stores its
# bounds in timeouts.go: allocfree/goroutinecapture audit the apply path,
# magictimeout audits the registry.
go run ./cmd/timerlint -run allocfree,goroutinecapture,magictimeout ./internal/control

echo "== fleet serial-vs-parallel determinism gate (64 hosts) =="
# Two separate processes — workers=1 and workers=4 — must print identical
# fleet digests: per-host traces byte-identical regardless of worker count.
# (Each multi-worker run also self-checks in-process; this gate additionally
# pins serial-only against parallel across process boundaries.)
fleet_args=(-fleet -hosts 64 -fleet-duration 2s)
d1="$(go run ./cmd/experiments "${fleet_args[@]}" -fleet-workers 1 | grep '^fleet digest:' | cut -d' ' -f3)"
d4="$(go run ./cmd/experiments "${fleet_args[@]}" -fleet-workers 4 | grep '^fleet digest:' | cut -d' ' -f3)"
if [[ -z "$d1" || "$d1" != "$d4" ]]; then
	echo "FLEET NONDETERMINISM: workers=1 digest '$d1' != workers=4 digest '$d4'" >&2
	exit 1
fi
echo "fleet digest $d1 identical at workers=1 and workers=4"

echo "== command-replay determinism gate (steered run == recorded replay) =="
# A steered run's recorded command log, replayed from seed in separate
# processes at two other worker counts, must land on the identical control
# digest. CONTROL_HOSTS
# sizes the fleet (default 1024 — the acceptance scale; the whole
# four-run gate pair takes ~12 s on this container).
ctl_dir="$(mktemp -d)"
ctl_args=(-hosts "${CONTROL_HOSTS:-1024}" -fleet-duration 1s -seed 7)
steer_script="10:spike:*:4:200ms,20:kill:ws-0000,25:policy:*:adaptive,30:coalesce:*:100ms,60:restart:ws-0000"
go build -o "$ctl_dir/experiments" ./cmd/experiments
c1="$("$ctl_dir/experiments" "${ctl_args[@]}" -steer "$steer_script" \
	-record-commands "$ctl_dir/cmds.tcmd" -fleet-workers 4 \
	| grep '^control digest:' | cut -d' ' -f3)"
c2="$("$ctl_dir/experiments" "${ctl_args[@]}" -replay-commands "$ctl_dir/cmds.tcmd" \
	-fleet-workers 1 | grep '^control digest:' | cut -d' ' -f3)"
c3="$("$ctl_dir/experiments" "${ctl_args[@]}" -replay-commands "$ctl_dir/cmds.tcmd" \
	-fleet-workers 8 | grep '^control digest:' | cut -d' ' -f3)"
if [[ -z "$c1" || "$c1" != "$c2" || "$c1" != "$c3" ]]; then
	echo "COMMAND REPLAY NONDETERMINISM: steered '$c1' vs replay-w1 '$c2' vs replay-w8 '$c3'" >&2
	rm -rf "$ctl_dir"
	exit 1
fi
echo "control digest $c1 identical for steered run and both replays"

echo "== checkpoint-resume digest gate (interrupted run == uninterrupted) =="
# The same steered run interrupted at window 40, checkpointed, and resumed
# in a fresh process (different worker count) must finish on the exact
# digest of the uninterrupted run above. Keyframe verification runs inside
# -resume: any divergence between the rebuilt fleet and the checkpoint's
# per-host keyframe is a hard error before the run even continues.
"$ctl_dir/experiments" "${ctl_args[@]}" -steer "$steer_script" \
	-stop-window 40 -checkpoint "$ctl_dir/ck.tckp" -fleet-workers 4 > /dev/null
c4="$("$ctl_dir/experiments" -resume "$ctl_dir/ck.tckp" -fleet-workers 2 \
	| grep '^control digest:' | cut -d' ' -f3)"
rm -rf "$ctl_dir"
if [[ -z "$c4" || "$c4" != "$c1" ]]; then
	echo "CHECKPOINT RESUME DIVERGENCE: resumed digest '$c4' != uninterrupted '$c1'" >&2
	exit 1
fi
echo "control digest $c4 identical for checkpoint-resumed and uninterrupted runs"

echo "== live-service loopback gate (serve ingest == offline timerstat) =="
# End-to-end determinism across the network path: start timerstat -serve on
# a loopback port, record a trace while streaming it to the service through
# trace.HTTPSink (timertrace -emit), then the quiesced server's
# /api/summary must be byte-identical to offline `timerstat -json -summary`
# over the recorded file.
gate_dir="$(mktemp -d)"
serve_pid=""
trap 'rm -rf "$gate_dir"; [[ -n "$serve_pid" ]] && kill "$serve_pid" 2>/dev/null || true' EXIT
go build -o "$gate_dir/timerstat" ./cmd/timerstat
go build -o "$gate_dir/timertrace" ./cmd/timertrace
"$gate_dir/timerstat" -serve 127.0.0.1:0 > "$gate_dir/serve.out" 2> "$gate_dir/serve.log" &
serve_pid=$!
for _ in $(seq 50); do
	serve_url="$(sed -n 's#^listening on ##p' "$gate_dir/serve.out")"
	[[ -n "$serve_url" ]] && break
	sleep 0.1
done
if [[ -z "${serve_url:-}" ]]; then
	echo "LOOPBACK GATE: timerstat -serve never reported its address" >&2
	cat "$gate_dir/serve.log" >&2
	exit 1
fi
"$gate_dir/timertrace" -os linux -workload firefox -duration 2m \
	-o "$gate_dir/gate.trace" -emit "$serve_url" > /dev/null
curl -sf "$serve_url/api/summary" > "$gate_dir/served.json"
"$gate_dir/timerstat" -json -summary "$gate_dir/gate.trace" > "$gate_dir/offline.json"
if ! diff -u "$gate_dir/served.json" "$gate_dir/offline.json"; then
	echo "LOOPBACK GATE: live /api/summary != offline timerstat -json -summary" >&2
	exit 1
fi
echo "live service summary byte-identical to offline analysis"

echo "OK"
