#!/bin/sh
# End-to-end smoke test for the networked estimator daemon, three scenarios:
#
#  1. Serve + graceful drain: build costestd, start it cold (tiny substrate,
#     short training, checkpoint saved), wait for readiness, serve one
#     estimate discovered via /samplez, then SIGTERM and require a graceful
#     exit (drain log line + exit status 0).
#  2. Kill mid-checkpoint: reboot against the saved checkpoint with an
#     injected crash between the checkpoint's durable temp write and its
#     rename (-faults 'checkpoint.rename:crash:count=1'). The process must
#     die with the injected-crash status, the checkpoint file must be
#     byte-identical to before the crash, and a third boot must still
#     cold-load it.
#  3. Replication: a primary with -replicate-listen retraining continuously,
#     a follower with -peers that must turn ready only once it serves the
#     cluster's weights and then serve /estimate answers identical to
#     the primary's; the follower is then killed (-9) mid-stream, restarted,
#     and must catch up to identical answers again.
#  4. Failover: a primary streams to a promotable cluster member (-peers,
#     -promote-rank 0). The primary is killed -9; the member's lease lapses,
#     it promotes (epoch 2 in /statsz and /estimate), keeps serving and runs
#     the supervised retrain loop (a "supervisor" block with cycles >= 1 in
#     /statsz); the old primary then restarts as a follower of the new
#     primary and catches up to byte-identical answers.
#
# Run from the repository root: scripts/smoke_costestd.sh [port]
# (the replication scenarios also use port+1 .. port+3)
set -eu

port="${1:-18099}"
work="$(mktemp -d)"
bin="$work/costestd"
ckpt="$work/model.ckpt"
logf="$(mktemp)"
pid=""
pid2=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    [ -n "$pid2" ] && kill -9 "$pid2" 2>/dev/null || true
    rm -rf "$work" "$logf"
}
trap cleanup EXIT

go build -o "$bin" ./cmd/costestd

# wait_ready polls /readyz until 200, failing loudly if the daemon dies.
wait_ready() {
    i=0
    while [ "$i" -lt 120 ]; do
        if [ "$(curl -s -o /dev/null -w '%{http_code}' "$base/readyz" 2>/dev/null)" = 200 ]; then
            return 0
        fi
        kill -0 "$pid" 2>/dev/null || { echo "smoke_costestd: daemon died during startup"; cat "$logf"; exit 1; }
        i=$((i + 1))
        sleep 0.5
    done
    echo "smoke_costestd: /readyz never became ready"
    cat "$logf"
    exit 1
}

"$bin" -addr "127.0.0.1:$port" -scale 0.02 -queries 60 -epochs 2 -checkpoint "$ckpt" >"$logf" 2>&1 &
pid=$!

base="http://127.0.0.1:$port"
wait_ready

curl -sf "$base/healthz" >/dev/null || { echo "smoke_costestd: /healthz failed"; exit 1; }

sample="$(curl -sf "$base/samplez")"
resp="$(printf '%s' "$sample" | curl -sf -X POST --data @- "$base/estimate")"
printf '%s' "$resp" | grep -q '"version": *[1-9]' || {
    echo "smoke_costestd: /estimate returned no versioned estimate: $resp"
    exit 1
}
curl -sf "$base/statsz" | grep -q '"served": *[1-9]' || {
    echo "smoke_costestd: /statsz does not count the served request"
    exit 1
}

kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || { echo "smoke_costestd: exit status $status after SIGTERM"; cat "$logf"; exit 1; }
grep -q "drained clean" "$logf" || { echo "smoke_costestd: no drain log line"; cat "$logf"; exit 1; }
[ -f "$ckpt" ] || { echo "smoke_costestd: first boot saved no checkpoint"; exit 1; }

# Scenario 2: kill mid-checkpoint. Cold-load the checkpoint, retrain fast
# with the gate disabled so the first publish checkpoints immediately, and
# crash between the durable temp write and the rename.
sum_before="$(cksum <"$ckpt")"
: >"$logf"
"$bin" -addr "127.0.0.1:$port" -scale 0.02 -queries 60 -epochs 2 \
    -checkpoint "$ckpt" -retrain 250ms -gate-slack=-1 \
    -faults 'checkpoint.rename:crash:count=1' >"$logf" 2>&1 &
pid=$!
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 3 ] || { echo "smoke_costestd: injected crash exit status $status, want 3"; cat "$logf"; exit 1; }
grep -q "cold-loaded checkpoint" "$logf" || { echo "smoke_costestd: crash boot did not cold-load"; cat "$logf"; exit 1; }
grep -q "injected crash at checkpoint.rename" "$logf" || { echo "smoke_costestd: no injected-crash log"; cat "$logf"; exit 1; }
[ -f "$ckpt.tmp" ] || { echo "smoke_costestd: no durable temp file from the interrupted checkpoint"; exit 1; }
sum_after="$(cksum <"$ckpt")"
[ "$sum_before" = "$sum_after" ] || {
    echo "smoke_costestd: kill mid-checkpoint modified the last-good checkpoint"
    exit 1
}

# Scenario 2, boot 3: the last-good file still cold-starts the daemon.
: >"$logf"
"$bin" -addr "127.0.0.1:$port" -scale 0.02 -queries 60 -epochs 2 -checkpoint "$ckpt" >"$logf" 2>&1 &
pid=$!
wait_ready
grep -q "cold-loaded checkpoint" "$logf" || { echo "smoke_costestd: post-crash boot retrained instead of cold-loading"; cat "$logf"; exit 1; }
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || { echo "smoke_costestd: post-crash boot exit status $status"; cat "$logf"; exit 1; }

# Scenario 3: replication. A continuously retraining primary streams every
# publication to a follower; the follower serves identical answers, survives
# a kill -9 mid-stream, and catches up after restart. Publications race the
# probes, so identity is asserted with a retry loop: some attempt must catch
# both daemons on the same generation with byte-identical /estimate bodies.
fport=$((port + 1))
rport=$((port + 2))
plog="$work/primary.log"
flog="$work/follower.log"

"$bin" -addr "127.0.0.1:$port" -scale 0.02 -queries 60 -epochs 2 \
    -retrain 400ms -gate-slack=-1 \
    -replicate-listen "127.0.0.1:$rport" >"$plog" 2>&1 &
pid=$!
logf="$plog"
base="http://127.0.0.1:$port"
wait_ready
sample="$(curl -sf "$base/samplez")"

start_follower() {
    "$bin" -addr "127.0.0.1:$fport" -scale 0.02 -queries 60 \
        -peers "127.0.0.1:$rport" >>"$flog" 2>&1 &
    pid2=$!
}

# wait_follower_ready: like wait_ready but for the follower process.
wait_follower_ready() {
    i=0
    while [ "$i" -lt 120 ]; do
        if [ "$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$fport/readyz" 2>/dev/null)" = 200 ]; then
            return 0
        fi
        kill -0 "$pid2" 2>/dev/null || { echo "smoke_costestd: follower died during startup"; cat "$flog"; exit 1; }
        i=$((i + 1))
        sleep 0.5
    done
    echo "smoke_costestd: follower /readyz never became ready"
    cat "$flog"
    exit 1
}

# expect_identical: retry until primary and follower serve identical
# cost/card bits for the sample plan, named by the same (epoch, generation).
# The version fields are local server counters (a restarted follower restarts
# its own counter), so the bits and the replication coordinates are what must
# agree; publications race the probes, so some attempt must catch both
# daemons on the same generation's model. Both answers must be labeled: the
# primary's boot version, published before its publisher existed, is not.
expect_identical() {
    i=0
    while [ "$i" -lt 60 ]; do
        rp="$(printf '%s' "$sample" | curl -sf -X POST --data @- "$base/estimate" | grep -E '"(cost|card|epoch|generation)"' || true)"
        rf="$(printf '%s' "$sample" | curl -sf -X POST --data @- "http://127.0.0.1:$fport/estimate" | grep -E '"(cost|card|epoch|generation)"' || true)"
        if [ -n "$rp" ] && [ "$rp" = "$rf" ] && printf '%s' "$rp" | grep -q '"generation"'; then
            return 0
        fi
        i=$((i + 1))
        sleep 0.25
    done
    echo "smoke_costestd: follower never served an /estimate identical to the primary's"
    echo "primary:  $rp"
    echo "follower: $rf"
    cat "$flog"
    exit 1
}

start_follower
wait_follower_ready
grep -q "serving cluster weights" "$flog" || {
    echo "smoke_costestd: follower turned ready without a replicated model"
    cat "$flog"
    exit 1
}
expect_identical
curl -sf "http://127.0.0.1:$fport/statsz" | grep -q '"snapshot_frames_applied": *[1-9]' || {
    echo "smoke_costestd: follower /statsz shows no snapshot applied"
    exit 1
}

# Kill the follower mid-stream (ungraceful), let the primary publish on,
# then restart and require catch-up to identical answers again.
kill -9 "$pid2"
wait "$pid2" 2>/dev/null || true
pid2=""
sleep 1
start_follower
wait_follower_ready
expect_identical

kill -TERM "$pid2"
status=0
wait "$pid2" || status=$?
pid2=""
[ "$status" -eq 0 ] || { echo "smoke_costestd: follower exit status $status after SIGTERM"; cat "$flog"; exit 1; }
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || { echo "smoke_costestd: primary exit status $status after SIGTERM"; cat "$plog"; exit 1; }

# Scenario 4: failover. A primary streams to a promotable cluster member.
# kill -9 the primary: the member's primary-liveness lease lapses, it
# promotes to epoch 2 on its own replication listener and keeps serving;
# the old primary restarts as a plain follower of the new primary and
# catches back up to byte-identical answers.
rport2=$((port + 3))
alog="$work/ha_primary.log"
mlog="$work/ha_member.log"

"$bin" -addr "127.0.0.1:$port" -scale 0.02 -queries 60 -epochs 2 \
    -retrain 400ms -gate-slack=-1 \
    -replicate-listen "127.0.0.1:$rport" >"$alog" 2>&1 &
pid=$!
logf="$alog"
base="http://127.0.0.1:$port"
wait_ready
sample="$(curl -sf "$base/samplez")"

"$bin" -addr "127.0.0.1:$fport" -scale 0.02 -queries 60 \
    -peers "127.0.0.1:$rport" -promote-rank 0 -replicate-listen "127.0.0.1:$rport2" \
    -lease 2s -heartbeat 250ms -retrain 400ms >"$mlog" 2>&1 &
pid2=$!
flog="$mlog"
wait_follower_ready
expect_identical

# Kill -9 the primary mid-stream: the member must detect the lapsed lease
# and promote within the lease bound (poll generously for slow CI).
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
i=0
while [ "$i" -lt 60 ]; do
    if curl -sf "http://127.0.0.1:$fport/statsz" | grep -q '"state": *"primary"'; then
        break
    fi
    kill -0 "$pid2" 2>/dev/null || { echo "smoke_costestd: member died during failover"; cat "$mlog"; exit 1; }
    i=$((i + 1))
    sleep 0.5
done
[ "$i" -lt 60 ] || { echo "smoke_costestd: member never promoted after primary kill"; cat "$mlog"; exit 1; }
grep -q "PROMOTED to primary at epoch 2" "$mlog" || {
    echo "smoke_costestd: no promotion log line"; cat "$mlog"; exit 1;
}
curl -sf "http://127.0.0.1:$fport/statsz" | grep -q '"epoch": *2' || {
    echo "smoke_costestd: promoted member /statsz does not report epoch 2"; exit 1;
}
[ "$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$fport/readyz" 2>/dev/null)" = 200 ] || {
    echo "smoke_costestd: promoted member stopped serving"; cat "$mlog"; exit 1;
}
printf '%s' "$sample" | curl -sf -X POST --data @- "http://127.0.0.1:$fport/estimate" | grep -q '"epoch": *2' || {
    echo "smoke_costestd: promoted member /estimate does not carry epoch 2"; exit 1;
}
# The promoted member runs the boot primary's supervisor: its first retrain
# cycle (one -retrain interval after promotion) shows in /statsz.
i=0
while [ "$i" -lt 40 ]; do
    if curl -sf "http://127.0.0.1:$fport/statsz" | tr -d ' \n' | grep -q '"supervisor":{"cycles":[1-9]'; then
        break
    fi
    i=$((i + 1))
    sleep 0.25
done
[ "$i" -lt 40 ] || { echo "smoke_costestd: promoted member /statsz shows no supervised retrain cycle"; cat "$mlog"; exit 1; }

# The old primary comes back — as a follower of the new primary — and must
# catch up to byte-identical answers.
"$bin" -addr "127.0.0.1:$port" -scale 0.02 -queries 60 \
    -peers "127.0.0.1:$rport2" >>"$alog" 2>&1 &
pid=$!
wait_ready
expect_identical

kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || { echo "smoke_costestd: rejoined ex-primary exit status $status after SIGTERM"; cat "$alog"; exit 1; }
kill -TERM "$pid2"
status=0
wait "$pid2" || status=$?
pid2=""
[ "$status" -eq 0 ] || { echo "smoke_costestd: promoted member exit status $status after SIGTERM"; cat "$mlog"; exit 1; }

echo "smoke_costestd: OK (serve+drain, kill-mid-checkpoint, cold-start from last-good, replication catch-up, failover promotion)"
