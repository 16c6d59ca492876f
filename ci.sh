#!/bin/sh
# CI gate: vet, gofmt, build, full test suite, race detector over the
# packages with real cross-goroutine traffic, a benchmark smoke pass, a
# smoke batch run through the experiment harness, and the committed
# results/ regenerated byte for byte. Exits non-zero on the first failure.
#
# `./ci.sh bench` instead runs the full benchmark suites with -benchmem and
# writes a benchstat-comparable baseline to results/bench.json (tune with
# BENCH_COUNT / BENCH_TIME / BENCH_PATTERN). Compare a working tree against
# the committed baseline with:
#
#	go run ./cmd/benchjson -print results/bench.json > /tmp/old.txt
#	go test -run '^$' -bench . -benchmem -count 5 ./... > /tmp/new.txt
#	benchstat /tmp/old.txt /tmp/new.txt
set -eu

cd "$(dirname "$0")"

if [ "${1:-}" = "lines" ]; then
    # Raw `wc -l` totals of the tracked Go files outside bench/, non-test
    # and test apart (new files count once staged). A change's net lines in
    # CHANGES.md are the difference of this before and after it.
    files=$(git ls-files -- '*.go' ':!:bench/*')
    echo "non-test $(echo "$files" | grep -v '_test\.go$' | xargs cat | wc -l)"
    echo "test $(echo "$files" | grep '_test\.go$' | xargs cat | wc -l)"
    exit 0
fi

if [ "${1:-}" = "obs" ]; then
    # Observability-focused slice of the gate: the determinism contract
    # (artifact snapshots byte-identical across worker counts and both
    # schedulers) and the golden trace/artifact schemas, all under -race.
    echo "== obs: determinism + golden schema (-race) =="
    go test -race -run 'Metrics|GoldenSchema|ChromeTrace|Observability' \
        ./internal/obs ./internal/exp ./internal/platform
    echo "== obs passed =="
    exit 0
fi

if [ "${1:-}" = "bench-compare" ]; then
    # Soft performance gate: re-run the headline channel benchmarks (fig6b
    # single transmission, fig7 window sweep) and diff them against the
    # committed baseline. Smoke timings are single-shot and noisy, so
    # benchjson's default advisory mode is used — a regression past the
    # threshold prints a loud warning instead of failing the build; run
    # `./ci.sh bench` for a statistically sound baseline before acting on
    # one, and `./ci.sh bench-gate` for the hard-gated check.
    base="${BENCH_BASELINE:-results/bench.json}"
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    echo "== bench-compare: fig6b/fig7 smoke vs $base (soft) =="
    go test -run '^$' -bench 'Fig6bCovertChannel|Fig7WindowSweep' -benchmem \
        -benchtime 1x -count "${BENCH_COUNT:-3}" . > "$tmp/new.txt"
    go run ./cmd/benchjson -o "$tmp/new.json" < "$tmp/new.txt"
    if go run ./cmd/benchjson diff -subset -threshold "${BENCH_THRESHOLD:-25}" "$base" "$tmp/new.json"; then
        echo "== bench-compare done (advisory) =="
    else
        echo "== bench-compare: WARNING: diff failed (see above) ==" >&2
    fi
    exit 0
fi

if [ "${1:-}" = "bench-gate" ]; then
    # Hard performance gate for the transmission hot path: losing the
    # collapsed timer wait (polling every read through the scheduler) or a
    # slower actor switch shows up in the fig6b and fig7 benchmarks as a
    # multi-x regression that no noise excuse covers. The generous
    # threshold tolerates smoke-run noise while still catching a lost 2x.
    base="${BENCH_BASELINE:-results/bench.json}"
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    echo "== bench-gate: fig6b/fig7 vs $base (hard) =="
    go test -run '^$' -bench 'Fig6bCovertChannel$|Fig7WindowSweep$' -benchmem \
        -benchtime 1x -count "${BENCH_COUNT:-3}" . > "$tmp/new.txt"
    go run ./cmd/benchjson -o "$tmp/new.json" < "$tmp/new.txt"
    go run ./cmd/benchjson diff -subset -fail-on-regress \
        -threshold "${BENCH_GATE_THRESHOLD:-60}" "$base" "$tmp/new.json"
    echo "== bench-gate passed =="
    exit 0
fi

if [ "${1:-}" = "bench" ]; then
    count="${BENCH_COUNT:-5}"
    time="${BENCH_TIME:-1s}"
    pattern="${BENCH_PATTERN:-.}"
    out="${BENCH_OUT:-results/bench.json}"
    txt="${out%.json}.txt"
    mkdir -p "$(dirname "$out")"
    echo "== bench: -bench $pattern -count $count -benchtime $time -> $out =="
    go test -run '^$' -bench "$pattern" -benchmem -count "$count" -benchtime "$time" ./... | tee "$txt"
    go run ./cmd/benchjson -o "$out" < "$txt"
    rm -f "$txt"
    echo "== bench baseline written: $out =="
    exit 0
fi

echo "== go vet =="
go vet ./...

echo "== gofmt =="
# Every Go file, tracked or new and not ignored, must be gofmt-clean.
files=$(git ls-files --cached --others --exclude-standard -- '*.go')
unformatted=$(gofmt -l $files)
if [ -n "$unformatted" ]; then
    echo "gofmt -l lists files that need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (internal/exp, internal/fault, internal/sim, internal/obs/ops, internal/cache, internal/platform, internal/cpucache, internal/snapstore, internal/serve, internal/serve/journal; internal/core TestWarm*) =="
# internal/obs/ops rides along for its scrape-while-updating test: lock-free
# instruments hammered by writers while /metrics renders concurrently.
# internal/cache, internal/platform and internal/cpucache clone or fork one
# frozen snapshot from several goroutines: forks share DRAM pages, every
# cache level's set blocks (CPU caches and the MEE cache) and the LLC line
# buffers copy-on-write, so a fork that writes shared state instead of
# copying it races here.
# internal/snapstore and core's warm-cache tests: spills, fault-ins and the
# adoption of an entry whose spill is in flight cross goroutines.
# internal/serve and its journal: HTTP handlers, run workers, the memo
# table, the warm cache and the shutdown spill all share one Server.
go test -race ./internal/exp ./internal/fault ./internal/sim ./internal/obs/ops \
    ./internal/cache ./internal/platform ./internal/cpucache ./internal/snapstore \
    ./internal/serve ./internal/serve/journal
go test -race -run '^TestWarm' ./internal/core

echo "== go test -race -count=10: exp unit dispatch =="
# Workers take a seed's shared-axis trials as one unit, and a stop can cut a
# unit short between trials; these two tests drive both by events.
go test -race -count=10 \
    -run '^(TestSharedSeedTrialsRunAsOneUnit|TestCancelInsideUnitSkipsItsRest)$' ./internal/exp

echo "== go test -race: fig6b/fig7 (1 iteration) =="
# One race-instrumented pass over the transmission hot path: every actor
# switch and collapsed timer wait of a full channel run goes through the
# one engine, so a data race there fails the build.
go test -race -run '^$' -bench 'Fig6bCovertChannel$|Fig7WindowSweep$' -benchtime 1x .

echo "== bench smoke (1 iteration per benchmark) =="
# One iteration of every benchmark: catches benchmarks that panic or hang
# without paying for statistically meaningful timings (that's `ci.sh bench`).
go test -run '^$' -bench . -benchtime 1x ./...

echo "== fuzz smoke: internal/platform =="
# FuzzWaitTimer: the timer-wait collapse commits a whole poll loop in one
# scheduling step; for any clock, deadline, timer model and Run limit it must
# end exactly where polling one read at a time would, under both schedulers.
# FuzzAccessFlush: the access–flush collapse applies a load+clflush pair as
# what it leaves behind; for any multi-thread script and Run limit it must
# leave what the literal Access then Flush leaves, under both schedulers.
# FuzzForkEquivalence: a fork replays the stream of a platform that never
# forked, even after the snapshot's parent runs on over the shared state.
for target in FuzzWaitTimer FuzzAccessFlush FuzzForkEquivalence; do
    go test ./internal/platform -run '^$' -fuzz "^$target\$" -fuzztime 5s
done

echo "== fuzz smoke: internal/cache, internal/cpucache =="
# FuzzCacheMatchesReference: random scripts over a shrunk cache must match a
# plain list-per-set LRU/FIFO reference op for op, through a round trip of
# the cache's image (AppendImage, then ReadImage) and clones taken from a
# live and from a frozen cache, both sides running on.
# FuzzHierarchyInvariants: random multi-core reads, writes, fills,
# clflushes, snapshots and forks keep the LLC inclusive, the presence bits
# set and every valid LLC line paired with its buffer, which the one-scan
# clflush relies on, and leave every snapshot's image as it was taken.
go test ./internal/cache -run '^$' -fuzz '^FuzzCacheMatchesReference$' -fuzztime 5s
go test ./internal/cpucache -run '^$' -fuzz '^FuzzHierarchyInvariants$' -fuzztime 5s

echo "== fuzz smoke: internal/mee =="
# FuzzTamperDetected: byte flips behind the engine in data, PD_Tag and
# counter lines, between reads that replay the engine's memos of verified
# lines, forks and state round trips, are detected exactly when an oracle
# without memos says they must be.
go test ./internal/mee -run '^$' -fuzz '^FuzzTamperDetected$' -fuzztime 5s

echo "== fuzz smoke: internal/code =="
# A short randomized pass over the decoder-facing fuzz targets: the channel
# hands the decoder attacker-observed, noise-corrupted bits, so "never
# panics, never returns unverified payloads" must hold for arbitrary input.
for target in FuzzDecodeNeverPanics FuzzDecodeTruncatedStream; do
    go test ./internal/code -run '^$' -fuzz "$target" -fuzztime 5s
done

echo "== fuzz smoke: internal/snapstore =="
# Snapshot blobs come off disk, where truncation and bit rot are real:
# damaged bytes must come back as errors, never panics or silently wrong
# machines.
go test ./internal/snapstore -run '^$' -fuzz FuzzSnapshotCodec -fuzztime 5s

echo "== fuzz smoke: internal/serve/journal =="
# The write-ahead log replays whatever a crash left on disk: arbitrary bytes
# must never panic, and every record recovered must be a real record.
go test ./internal/serve/journal -run '^$' -fuzz FuzzJournalReplay -fuzztime 5s

echo "== bench module: vet + tests =="
# bench/ is its own module pinned to go 1.22 and built with -mod=readonly,
# so a go-directive bump or API break in the root module fails here first.
(cd bench && go vet ./... && go test ./...)

echo "== smoke: meecc batch =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/meecc batch -spec examples/specs/smoke.json -out "$tmp"
for f in smoke.json smoke.manifest.json; do
    test -s "$tmp/$f" || { echo "missing artifact $f" >&2; exit 1; }
done

echo "== smoke: meecc serve/submit + telemetry scrape =="
# The experiment service's determinism contract, end to end over real HTTP:
# an artifact served by `meecc serve` is byte-identical to the one the local
# batch run above produced for the same spec — with operational telemetry on
# (it always is), proving wall-clock state never leaks into artifacts. While
# the run is in flight, `meecc top -once -require` scrapes /metrics and
# /healthz and fails the build if any contractual family is missing or the
# exposition doesn't parse.
go build -o "$tmp/meecc" ./cmd/meecc
"$tmp/meecc" serve -addr 127.0.0.1:8391 -storedir "$tmp/snapstore" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
"$tmp/meecc" submit -spec examples/specs/smoke.json -addr 127.0.0.1:8391 -out "$tmp/served" &
submit_pid=$!
sleep 0.3
"$tmp/meecc" top -addr 127.0.0.1:8391 -once -require \
    meecc_serve_runs_submitted_total,meecc_serve_queue_depth,meecc_serve_runs_active,meecc_serve_trials_executed_total,meecc_serve_trials_memoized_total,meecc_serve_trial_seconds,meecc_journal_appends_total,meecc_journal_append_errors_total,meecc_snapstore_bytes,meecc_snapstore_selfheal_deletions_total,meecc_http_requests_total,meecc_process_goroutines \
    > /dev/null
wait "$submit_pid" || { echo "submit failed" >&2; exit 1; }
# The same grid with shared axes keeps its two warm states resident in the
# server's memory tier, which never fills; the SIGTERM drain must spill them
# to -storedir, so a restart faults them in instead of warming up again.
sed 's/"axes"/"shared_axes": ["window"], "axes"/' examples/specs/smoke.json > "$tmp/shared.json"
"$tmp/meecc" submit -spec "$tmp/shared.json" -addr 127.0.0.1:8391 -out "$tmp/shared" > /dev/null
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
trap 'rm -rf "$tmp"' EXIT
ls "$tmp"/snapstore/*.snap > /dev/null 2>&1 || {
    echo "serve shutdown left no warm state in -storedir" >&2; exit 1; }
cmp "$tmp/served/smoke.json" "$tmp/smoke.json" || {
    echo "served artifact differs from local batch artifact" >&2; exit 1; }

echo "== smoke: a second server spills the same warm-state blobs =="
# A warm-state blob is a function of its store key: whichever cell warms a
# seed, the state holds only what the warm phase computed. A second server
# on a fresh -storedir runs the shared grid with its window list reversed,
# so each seed warms from a config with the other window; every blob it
# spills on SIGTERM must equal the first server's file of the same name.
sed 's/"values": \["10000", "15000"\]/"values": ["15000", "10000"]/' "$tmp/shared.json" > "$tmp/reversed.json"
if cmp -s "$tmp/shared.json" "$tmp/reversed.json"; then
    echo "reversing the shared grid's window list changed nothing" >&2; exit 1
fi
"$tmp/meecc" serve -addr 127.0.0.1:8391 -storedir "$tmp/snapstore2" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
"$tmp/meecc" submit -spec "$tmp/reversed.json" -addr 127.0.0.1:8391 -out "$tmp/reversed" > /dev/null
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
trap 'rm -rf "$tmp"' EXIT
ls "$tmp"/snapstore2/*.snap > /dev/null 2>&1 || {
    echo "the second server's shutdown left no warm state in -storedir" >&2; exit 1; }
for blob in "$tmp"/snapstore2/*.snap; do
    cmp "$blob" "$tmp/snapstore/${blob##*/}" || {
        echo "one store key, two blobs: ${blob##*/}" >&2; exit 1; }
done

echo "== smoke: serve restart faults the spilled warm states in =="
# A fresh server on the same -storedir has no memo and no resident warm
# state, so the resubmitted shared grid runs every trial again, each on a
# warm state decoded from a blob the first server spilled: /metrics must
# show disk loads and no warm-up, and the artifact must be the first
# shared run's, byte for byte.
"$tmp/meecc" serve -addr 127.0.0.1:8391 -storedir "$tmp/snapstore" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
"$tmp/meecc" submit -spec "$tmp/shared.json" -addr 127.0.0.1:8391 -out "$tmp/restarted" > /dev/null
curl -sf http://127.0.0.1:8391/metrics > "$tmp/restarted.metrics"
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
trap 'rm -rf "$tmp"' EXIT
grep -qx 'meecc_warm_computes 0' "$tmp/restarted.metrics" &&
    grep -q '^meecc_warm_disk_loads [1-9]' "$tmp/restarted.metrics" || {
    echo "restarted server warmed up again instead of faulting its spilled states in:" >&2
    grep '^meecc_warm_' "$tmp/restarted.metrics" >&2; exit 1; }
cmp "$tmp/restarted/smoke.json" "$tmp/shared/smoke.json" || {
    echo "restarted server's artifact differs from the first shared run's" >&2; exit 1; }

echo "== smoke: serve crash recovery (kill -9 / restart / resume) =="
# The durability contract, end to end over real processes: a server killed
# with SIGKILL mid-run loses nothing its journal committed. The resubmitted
# run resumes from the replayed memo and produces an artifact byte-identical
# to the local batch run. (If the first run finishes before the kill lands,
# the resubmission is simply fully memoized — the comparison still holds.)
"$tmp/meecc" serve -addr 127.0.0.1:8392 -journal "$tmp/serve.wal" &
serve_pid=$!
trap 'kill -9 "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
("$tmp/meecc" submit -spec examples/specs/smoke.json -addr 127.0.0.1:8392 \
    -out "$tmp/crashed" >/dev/null 2>&1 || true) &
submit_pid=$!
sleep 1
kill -9 "$serve_pid"
# Reap the killed server before restarting on its port: until it has exited,
# the restart can fail with "bind: address already in use".
wait "$serve_pid" 2>/dev/null || true
# The orphaned submit would retry-reconnect for a while; it has served its
# purpose (driving the run the kill interrupted), so take it down too.
kill "$submit_pid" 2>/dev/null || true
wait "$submit_pid" 2>/dev/null || true
test -s "$tmp/serve.wal" || { echo "journal was never written" >&2; exit 1; }
# The restart logs as JSON: the killed server journaled at least the run's
# admission, so the replay line must count a nonzero number of records.
"$tmp/meecc" serve -addr 127.0.0.1:8392 -journal "$tmp/serve.wal" -logformat json 2> "$tmp/restart.log" &
serve_pid=$!
trap 'kill -9 "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
"$tmp/meecc" submit -spec examples/specs/smoke.json -addr 127.0.0.1:8392 -out "$tmp/resumed"
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
trap 'rm -rf "$tmp"' EXIT
cmp "$tmp/resumed/smoke.json" "$tmp/smoke.json" || {
    echo "resumed artifact differs from local batch artifact" >&2; exit 1; }
grep -q '^{.*"msg":"journal replayed".*"records":[1-9]' "$tmp/restart.log" || {
    echo "restarted server logged no JSON journal replay with records:" >&2
    cat "$tmp/restart.log" >&2; exit 1; }

echo "== smoke: in-band, parallel, reliable and fig 6a/E/P runners; meecc flags and figure alias =="
# internal/figures pins every figure's output by digest in-process, and the
# cmd/meecc tests pin every meecc command line the same way and cover
# command and flag parsing, as cmd/figures' tests cover figure ids. These
# drive the built binaries instead: the runners that share the channel's
# acquisition protocol (in-band sync, two parallel lanes and the adaptive
# ARQ session, which must deliver under MEE noise at 4 KB stride, then
# Prime+Probe (6a), the eviction-phase study (E) and the parallel-lane sweep
# (P)); a flag the subcommand does not declare, which must exit 2, so main
# parses through the per-subcommand flag sets; and the alias dispatch —
# `meecc timing` must print exactly what `figures -fig 2` prints.
"$tmp/meecc" send -inband > /dev/null
"$tmp/meecc" send -lanes 2 > /dev/null
"$tmp/meecc" send -reliable -noise mee4k > /dev/null
"$tmp/meecc" hash -spec examples/specs/smoke.json -trials 3 > /dev/null 2>&1 && code=0 || code=$?
[ "$code" -eq 2 ] || {
    echo "meecc hash -trials exited $code, want 2 (undeclared flag)" >&2; exit 1; }
go run ./cmd/figures -fig 6a,E,P -trials 2 -bits 64 > /dev/null
"$tmp/meecc" timing > "$tmp/timing.txt"
go run ./cmd/figures -fig 2 > "$tmp/fig2.txt"
cmp "$tmp/timing.txt" "$tmp/fig2.txt" || {
    echo "meecc timing differs from figures -fig 2" >&2; exit 1; }

echo "== smoke: traced fig6b =="
# One traced end-to-end transmission: the exported Chrome trace must pass
# the same structural validation Perfetto relies on (per-actor tracks, MEE
# hit-level counter track).
go run ./cmd/figures -fig 6b -trace "$tmp/fig6b.trace.json" > /dev/null
test -s "$tmp/fig6b.trace.json" || { echo "missing fig6b trace" >&2; exit 1; }
go run ./cmd/meecc inspect "$tmp/fig6b.trace.json"

echo "== smoke: examples =="
# Each example is a short program against the public facade that exits
# non-zero when a run it makes fails; examples/specs holds no program.
for dir in examples/*/; do
    name=$(basename "$dir")
    [ -f "$dir/main.go" ] || continue
    go build -o "$tmp/example-$name" "./$dir"
    "$tmp/example-$name" > /dev/null || { echo "example $name failed" >&2; exit 1; }
done

echo "== results: regenerate the committed 100-trial figures =="
# The determinism contract at paper scale: every committed results/ file
# must come back byte for byte from the command that wrote it, except the
# benchmark baseline. A run manifest also records the git revision, worker
# count, wall time and creation time of its run, so those four lines are
# deleted from both sides before its comparison.
mkdir -p "$tmp/results"
go run ./cmd/figures -fig all -bits 256 -trials 100 -workers 2 \
    -out "$tmp/results" > "$tmp/results/figures.txt"
for f in $(git ls-files results); do
    want="$f" got="$tmp/$f"
    case "$f" in
    results/bench.json) continue ;;
    results/*.manifest.json)
        run='"(git_rev|workers|wall_ms|created_at)":'
        grep -Ev "$run" "$f" > "$tmp/want.json" || true
        grep -Ev "$run" "$tmp/$f" > "$tmp/got.json" || true
        want="$tmp/want.json" got="$tmp/got.json" ;;
    esac
    cmp "$want" "$got" || {
        echo "$f differs from its regenerated copy" >&2; exit 1; }
done

echo "== bench-gate (hard gate) =="
sh "$0" bench-gate

echo "== bench-compare (soft gate) =="
sh "$0" bench-compare

echo "== ci passed =="
