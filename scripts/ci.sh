#!/usr/bin/env bash
# CI entry point: full test suite + parallel-generation and
# crash-resume smokes.
#
# 1. Runs the tier-1 suite (unit/property/integration tests), which also
#    holds the deterministic perf gates (model calls / primed positions
#    vs the planned budget) and the compiled-vs-numpy golden streams.
# 2. Smokes bench_table4_trawling at tiny scale with 2 worker processes
#    and only the GPT model rows, exercising the multiprocess D&C-GEN
#    backend end-to-end (~30 s warm; the first run trains the tiny
#    checkpoints into .cache/lab and takes a few minutes).
# 3. Crash-resume smoke: trains a tiny checkpoint, runs a 2-worker
#    D&C-GEN campaign that is killed after 3 journaled batches
#    (REPRO_FAULT), resumes it, and diffs the result against a clean
#    uninterrupted run — the streams must be byte-identical.
#    PassGPT leg: a tiny PassGPT's free-sampling campaign (the task
#    campaign PagPassGPT's uses) is crashed on a 2-worker pool after one
#    journaled chunk, its journal must pass `repro verify`, the resumed
#    stream must diff equal to a 1-worker numpy reference, and a
#    `--max-guesses` quota must exit 3.
#    Worker-fault legs on the same 2-worker campaign.  Hang leg: a
#    one-shot hung worker (hang:worker:1) that only the 1 s
#    REPRO_TASK_TIMEOUT watchdog can end; the stream must diff equal to
#    the clean run, its telemetry must count exactly one pool rebuild
#    and pass `summarize --check`.  Disk-full leg: a one-shot ENOSPC on
#    the run journal (disk_full:journal:1) must exit 1, as it does at
#    one worker, and `--resume` must then diff equal.
# 4. Telemetry smoke: a telemetry-enabled 2-worker campaign whose merged
#    summary must pass `repro telemetry summarize --check` (fleet guess
#    count == planned total, zero unaccounted task failures, prompt-cache
#    hits == planned dedup savings).
# 5. Ordered smoke (ISSUE 6): a best-first campaign on the same tiny
#    checkpoint is crashed at a journaled frontier snapshot, its journal
#    must pass `repro verify`, then it is resumed and diffed
#    byte-for-byte against the uninterrupted stream, and its telemetry
#    must pass `summarize --check`.
# 6. Compiled-backend smoke (ISSUE 8): reruns the 2-worker campaign with
#    `--backend compiled` and demands the stream of the numpy reference
#    run.  Soft-skipped (with a visible notice) when no C compiler is on
#    PATH.
# 7. Chaos sweep and server soak: one seeded case schedule, run as CLI
#    crash/resume legs and as requests to a live server under a worker
#    crash and a SIGTERM drain, each held to the numpy reference bytes.
# 8. Observability smoke: a traced+profiled 2-worker campaign must stay
#    byte-identical, pass `summarize --check`, and export to a single
#    connected chrome-trace tree (`export --check`); a live `repro serve`
#    is scraped for Prometheus exposition, rendered once by `repro top`,
#    and runs one ordered campaign whose stream and provably exact count
#    must equal the CLI's before its SIGTERM drain.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

python -m pytest -x -q

REPRO_BENCH_SCALE=tiny \
REPRO_BENCH_WORKERS=2 \
REPRO_BENCH_TRAWLING_MODELS="PagPassGPT,PagPassGPT-D&C" \
python -m pytest benchmarks/bench_table4_trawling.py --benchmark-only -x -q

# ----------------------------------------------------------------------
# Crash-resume smoke (ISSUE 2): interrupted campaign == clean campaign.
# ----------------------------------------------------------------------
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

python -m repro.cli synth --site rockyou --entries 2000 --out "$SMOKE_DIR/leak.txt"
python -m repro.cli clean --input "$SMOKE_DIR/leak.txt" --out "$SMOKE_DIR/cleaned.txt"
python -m repro.cli train --input "$SMOKE_DIR/cleaned.txt" --out "$SMOKE_DIR/model.npz" \
    --dim 32 --layers 1 --heads 2 --epochs 1 --batch-size 128

GEN_ARGS=(generate --checkpoint "$SMOKE_DIR/model.npz" -n 1500
          --dcgen --threshold 32 --workers 2 --seed 5)

# The reference run pins the numpy kernels; every later run takes the
# default backend (compiled wherever a C compiler exists), so each diff
# against clean_run.txt also holds the C kernels to the numpy bytes.
python -m repro.cli "${GEN_ARGS[@]}" --backend numpy --out "$SMOKE_DIR/clean_run.txt"

# Interrupted run: crash after 3 journaled leaf batches...
if REPRO_FAULT=crash:leaf_batch:3 \
   python -m repro.cli "${GEN_ARGS[@]}" --out "$SMOKE_DIR/resumed.txt" \
       --journal "$SMOKE_DIR/run.jsonl"; then
    echo "crash-resume smoke: injected crash did not fire" >&2
    exit 1
fi
test -s "$SMOKE_DIR/run.jsonl"  # journaled progress survived the crash

# Integrity gate (ISSUE 7): the crash left artifacts behind — the
# verifier must pass them (repairing a torn journal tail if the kill
# landed mid-write) before the resume leg is allowed to trust them.
python -m repro.cli verify "$SMOKE_DIR/run.jsonl" "$SMOKE_DIR/model.npz" --repair
echo "verify smoke: crash artifacts pass integrity verification"

# ...then resume and demand the byte-identical stream.
python -m repro.cli "${GEN_ARGS[@]}" --out "$SMOKE_DIR/resumed.txt" \
    --journal "$SMOKE_DIR/run.jsonl" --resume
diff "$SMOKE_DIR/clean_run.txt" "$SMOKE_DIR/resumed.txt"
echo "crash-resume smoke: interrupted+resumed run is byte-identical"

# The PassGPT baseline's free sampling is the same journaled task
# campaign: crash it on the pool, verify, resume against a serial numpy
# reference, and stop it on a guess quota (exit 3).
python -m repro.cli train --input "$SMOKE_DIR/cleaned.txt" --out "$SMOKE_DIR/passgpt.npz" \
    --model passgpt --dim 32 --layers 1 --heads 2 --epochs 1 --batch-size 128
PASS_ARGS=(generate --checkpoint "$SMOKE_DIR/passgpt.npz" -n 1500 --seed 5)
python -m repro.cli "${PASS_ARGS[@]}" --workers 1 --backend numpy \
    --out "$SMOKE_DIR/passgpt_clean.txt"
if REPRO_FAULT=crash:free_chunk:1 \
   python -m repro.cli "${PASS_ARGS[@]}" --workers 2 --out "$SMOKE_DIR/passgpt_resumed.txt" \
       --journal "$SMOKE_DIR/passgpt.jsonl"; then
    echo "passgpt smoke: injected crash did not fire" >&2
    exit 1
fi
python -m repro.cli verify "$SMOKE_DIR/passgpt.jsonl"
python -m repro.cli "${PASS_ARGS[@]}" --workers 2 --out "$SMOKE_DIR/passgpt_resumed.txt" \
    --journal "$SMOKE_DIR/passgpt.jsonl" --resume
diff "$SMOKE_DIR/passgpt_clean.txt" "$SMOKE_DIR/passgpt_resumed.txt"
status=0
python -m repro.cli "${PASS_ARGS[@]}" --max-guesses 10 --out "$SMOKE_DIR/passgpt_capped.txt" \
    --journal "$SMOKE_DIR/passgpt_capped.jsonl" || status=$?
test "$status" -eq 3 || { echo "passgpt smoke: --max-guesses exited $status, not 3" >&2; exit 1; }
echo "passgpt smoke: crashed+resumed free campaign is byte-identical; quota exits 3"

# ----------------------------------------------------------------------
# Worker-fault smoke: a fault in the pool path ends the campaign the way
# it ends at one worker.
# ----------------------------------------------------------------------
# Hang leg: the injected hang outlasts any test, so only the watchdog
# can end it; the pool is rebuilt once and the stream is unchanged.
REPRO_FAULT=hang:worker:1 REPRO_FAULT_STATE="$SMOKE_DIR/hang-state" REPRO_TASK_TIMEOUT=1 \
    python -m repro.cli "${GEN_ARGS[@]}" --out "$SMOKE_DIR/hung.txt" \
        --telemetry "$SMOKE_DIR/hang-tele"
diff "$SMOKE_DIR/clean_run.txt" "$SMOKE_DIR/hung.txt"
python - "$SMOKE_DIR/hang-tele/campaign-summary.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as fh:
    faults = json.load(fh)["faults"]
assert faults["pool_rebuilds"] == 1, faults
PY
python -m repro.cli telemetry summarize "$SMOKE_DIR/hang-tele" --check
echo "hang smoke: the watchdog rebuilt the pool once; stream byte-identical"

# Disk-full leg: ENOSPC on the journal exits 1 at two workers too, and
# the journal it leaves resumes to the clean stream.
status=0
REPRO_FAULT=disk_full:journal:1 REPRO_FAULT_STATE="$SMOKE_DIR/disk-state" \
    python -m repro.cli "${GEN_ARGS[@]}" --out "$SMOKE_DIR/disk_full.txt" \
        --journal "$SMOKE_DIR/disk_full.jsonl" || status=$?
test "$status" -eq 1 || { echo "disk-full smoke: exited $status, not 1" >&2; exit 1; }
python -m repro.cli "${GEN_ARGS[@]}" --out "$SMOKE_DIR/disk_full.txt" \
    --journal "$SMOKE_DIR/disk_full.jsonl" --resume
diff "$SMOKE_DIR/clean_run.txt" "$SMOKE_DIR/disk_full.txt"
echo "disk-full smoke: ENOSPC exits 1 on the pool; resumed stream byte-identical"

# ----------------------------------------------------------------------
# Telemetry smoke (ISSUE 5): traced campaign passes its invariant gate.
# ----------------------------------------------------------------------
python -m repro.cli "${GEN_ARGS[@]}" --out "$SMOKE_DIR/traced.txt" \
    --telemetry "$SMOKE_DIR/tele"
diff "$SMOKE_DIR/clean_run.txt" "$SMOKE_DIR/traced.txt"  # telemetry never alters the stream
test -s "$SMOKE_DIR/tele/telemetry.jsonl"
test -s "$SMOKE_DIR/tele/campaign-summary.json"
ls "$SMOKE_DIR"/tele/telemetry-worker-*.jsonl > /dev/null  # per-worker traces exist
python -m repro.cli telemetry summarize "$SMOKE_DIR/tele" --check
echo "telemetry smoke: merged campaign summary passes deterministic invariants"

# ----------------------------------------------------------------------
# Ordered smoke (ISSUE 6): best-first campaign, crash at a frontier
# snapshot, resume, byte-identical stream + telemetry invariants.
# ----------------------------------------------------------------------
# Snapshot cadence matters here: a frontier snapshot journals every
# column of the sorted frontier (fsync'd), so every-round snapshots would
# dominate the wall-clock.
ORD_ARGS=(generate --checkpoint "$SMOKE_DIR/model.npz" -n 120
          --strategy ordered --beam-width 64 --max-frontier 5000
          --snapshot-every 20)

# The reference runs on numpy, so the crashed and resumed runs below (on
# the default, compiled, backend) are held to the numpy bytes.
python -m repro.cli "${ORD_ARGS[@]}" --backend numpy --out "$SMOKE_DIR/ordered_clean.txt" \
    --telemetry "$SMOKE_DIR/ordered-tele"
python -m repro.cli telemetry summarize "$SMOKE_DIR/ordered-tele" --check

# Interrupted run: crash before the 4th frontier snapshot...
if REPRO_FAULT=crash:frontier:3 \
   python -m repro.cli "${ORD_ARGS[@]}" --out "$SMOKE_DIR/ordered_resumed.txt" \
       --journal "$SMOKE_DIR/ordered.jsonl"; then
    echo "ordered smoke: injected crash did not fire" >&2
    exit 1
fi
test -s "$SMOKE_DIR/ordered.jsonl"  # journaled snapshots survived the crash
python -m repro.cli verify "$SMOKE_DIR/ordered.jsonl"  # and the journal is intact

# ...then resume and demand the byte-identical ordered stream.
python -m repro.cli "${ORD_ARGS[@]}" --out "$SMOKE_DIR/ordered_resumed.txt" \
    --journal "$SMOKE_DIR/ordered.jsonl" --resume
diff "$SMOKE_DIR/ordered_clean.txt" "$SMOKE_DIR/ordered_resumed.txt"
echo "ordered smoke: crashed+resumed best-first stream is byte-identical"

# ----------------------------------------------------------------------
# Compiled-backend smoke (ISSUE 8): the fused C decode kernels must emit
# the byte-identical stream.  Soft-skip when the container has no C
# compiler — the numpy fallback path is already covered by the suite
# above.
# ----------------------------------------------------------------------
if command -v "${CC:-cc}" > /dev/null; then
    python -m repro.cli "${GEN_ARGS[@]}" --backend compiled \
        --out "$SMOKE_DIR/compiled_run.txt" --telemetry "$SMOKE_DIR/compiled-tele"
    diff "$SMOKE_DIR/clean_run.txt" "$SMOKE_DIR/compiled_run.txt"
    python -m repro.cli telemetry summarize "$SMOKE_DIR/compiled-tele" --check
    echo "compiled smoke: C backend stream is byte-identical"
else
    echo "compiled smoke: SKIPPED — no C compiler ('${CC:-cc}') on PATH" >&2
fi

# ----------------------------------------------------------------------
# Chaos smoke (ISSUE 7): fixed-seed randomized fault schedule.  Each case
# runs golden -> fault -> (repair if corrupted) -> resume and demands a
# byte-identical stream plus `telemetry summarize --check`.  Fixed seed
# keeps the schedule (and runtime, ~30 s) reproducible across CI runs.
# ----------------------------------------------------------------------
python -m repro.cli chaos --workdir "$SMOKE_DIR/chaos" \
    --checkpoint "$SMOKE_DIR/model.npz" \
    --seed 0 --per-strategy 1 --strategies dcgen,sampled --workers 1 -n 400
test -s "$SMOKE_DIR/chaos/chaos-report.json"
echo "chaos smoke: seeded fault schedule holds the byte-identical-resume invariant"

# ----------------------------------------------------------------------
# Server soak smoke: guessing as a service under chaos.  The same case
# schedule, one request per case, drives a live campaign server with
# concurrent client threads, a worker crash armed in the first case that
# reaches the pool (the soak fails if it never fires), and a SIGTERM
# drain mid-run; a recovered server over the same state dir must finish
# every accepted request with the numpy reference bytes (zero lost, zero
# duplicated) and a clean per-job `telemetry summarize --check`, or a
# typed failure.  Ordered cases stay out: a server job runs
# OrderedConfig(), far slower than the sweep's ordered flags.
# ----------------------------------------------------------------------
python -m repro.cli chaos --server --workdir "$SMOKE_DIR/soak" \
    --checkpoint "$SMOKE_DIR/model.npz" \
    --seed 0 --per-strategy 1 --strategies dcgen,sampled --workers 1,2 \
    --clients 2 -n 200
test -s "$SMOKE_DIR/soak/soak-report.json"
echo "server soak smoke: accepted requests survive crash+drain byte-identically"

# And the operator path end-to-end: a real `repro serve` process must
# come up, stay alive, and exit 0 on a SIGTERM graceful drain.
python -m repro.cli serve --checkpoint "$SMOKE_DIR/model.npz" \
    --state-dir "$SMOKE_DIR/server-state" --port 0 --fleet 1 &
SERVER_PID=$!
sleep 3
kill -0 "$SERVER_PID" || { echo "serve smoke: server died at startup" >&2; exit 1; }
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
test -s "$SMOKE_DIR/server-state/requests.journal.jsonl"
echo "serve smoke: SIGTERM drain exits 0"

# ----------------------------------------------------------------------
# Observability smoke (ISSUE 10): tracing + profiling + exposition.
# ----------------------------------------------------------------------
# A traced AND profiled 2-worker campaign still emits the byte-identical
# stream, its merged summary passes --check, the folded profile is
# non-empty, and the exported chrome-trace is one connected tree
# spanning the parent and worker pids.
python -m repro.cli "${GEN_ARGS[@]}" --out "$SMOKE_DIR/profiled.txt" \
    --telemetry "$SMOKE_DIR/obs-tele" --profile "$SMOKE_DIR/profile.folded"
diff "$SMOKE_DIR/clean_run.txt" "$SMOKE_DIR/profiled.txt"
test -s "$SMOKE_DIR/profile.folded"
python -m repro.cli telemetry summarize "$SMOKE_DIR/obs-tele" --check
python -m repro.cli telemetry export "$SMOKE_DIR/obs-tele" \
    --format chrome-trace --out "$SMOKE_DIR/trace.json" --check
test -s "$SMOKE_DIR/trace.json"
echo "observability smoke: traced+profiled campaign byte-identical, trace tree connected"

# Prometheus exposition + repro top against a live server.  The
# ephemeral port is parsed from the serve banner; the scrape uses
# stdlib urllib (curl is not guaranteed in the container).
python -m repro.cli serve --checkpoint "$SMOKE_DIR/model.npz" \
    --state-dir "$SMOKE_DIR/obs-server-state" --port 0 --fleet 1 \
    2> "$SMOKE_DIR/serve.log" &
SERVER_PID=$!
for _ in $(seq 1 50); do
    grep -q "serving on" "$SMOKE_DIR/serve.log" && break
    kill -0 "$SERVER_PID" || { cat "$SMOKE_DIR/serve.log" >&2; exit 1; }
    sleep 0.2
done
PORT=$(sed -n 's|.*serving on http://[^:]*:\([0-9]*\).*|\1|p' "$SMOKE_DIR/serve.log" | head -1)
test -n "$PORT" || { echo "observability smoke: no port in serve banner" >&2; exit 1; }
python - "$PORT" <<'PY'
import sys
from urllib.request import urlopen

port = sys.argv[1]
with urlopen(f"http://127.0.0.1:{port}/metrics?format=prometheus", timeout=10) as r:
    assert r.headers["Content-Type"].startswith("text/plain; version=0.0.4"), r.headers
    text = r.read().decode()
assert "# TYPE" in text and "repro_" in text, text[:400]
with urlopen(f"http://127.0.0.1:{port}/metrics", timeout=10) as r:
    assert r.headers["Content-Type"].startswith("application/json")
print("prometheus exposition scrape ok")
PY
python -m repro.cli top --url "http://127.0.0.1:$PORT" --once | grep -q "state: serving"

# Ordered through the live server: the server runs ordered jobs with
# OrderedConfig(), whose defaults match the CLI's ordered flags, so the
# job's stream (default backend) must equal a default-flag CLI run on
# numpy byte for byte, and the job's exact_prefix must equal the count
# on that run's "k of n guesses provably exact" stats line.
python - "$PORT" "$SMOKE_DIR/ordered_server.txt" "$SMOKE_DIR/ordered_server.exact" <<'PY'
import json
import sys
import time
from urllib.request import Request, urlopen

base, out, exact = f"http://127.0.0.1:{sys.argv[1]}", sys.argv[2], sys.argv[3]
body = json.dumps({"strategy": "ordered", "n": 120}).encode()
post = Request(f"{base}/campaigns", data=body, method="POST",
               headers={"Content-Type": "application/json"})
with urlopen(post, timeout=10) as r:
    job = json.load(r)
deadline = time.monotonic() + 600
while job["state"] not in ("done", "failed", "interrupted"):
    assert time.monotonic() < deadline, f"ordered job never finished: {job}"
    time.sleep(0.5)
    with urlopen(f"{base}/campaigns/{job['id']}", timeout=10) as r:
        job = json.load(r)
assert job["state"] == "done", job
assert job["detail"]["emitted"] == 120, job
with urlopen(f"{base}/campaigns/{job['id']}/guesses", timeout=10) as r:
    data = r.read()
with open(out, "wb") as fh:
    fh.write(data)
with open(exact, "w") as fh:
    fh.write(f"{job['detail']['exact_prefix']}\n")
print("ordered campaign through the live server: done")
PY
python -m repro.cli generate --checkpoint "$SMOKE_DIR/model.npz" -n 120 \
    --strategy ordered --backend numpy --out "$SMOKE_DIR/ordered_cli.txt" 2>&1 \
    | tee "$SMOKE_DIR/ordered_cli.log"
diff "$SMOKE_DIR/ordered_cli.txt" "$SMOKE_DIR/ordered_server.txt"
CLI_EXACT=$(sed -n 's/.* \([0-9][0-9]*\) of 120 guesses provably exact$/\1/p' \
    "$SMOKE_DIR/ordered_cli.log")
test -n "$CLI_EXACT"
test "$CLI_EXACT" = "$(cat "$SMOKE_DIR/ordered_server.exact")"
echo "ordered smoke: server ordered job == repro generate --strategy ordered" \
    "(stream and $CLI_EXACT provably exact)"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
echo "observability smoke: prometheus scrape + repro top ok, drain clean"
