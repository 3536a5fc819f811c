#!/usr/bin/env bash
# Offline CI gate for the AeroDiffusion workspace.
#
# Mirrors exactly what a reviewer runs before merging:
#   1. rustfmt       — formatting must be canonical
#   2. clippy        — workspace lint policy ([workspace.lints] in Cargo.toml),
#                      warnings are errors
#   3. tests         — the full workspace test suite
#   4. static lint   — aero-analysis shape validation of every shipped
#                      pipeline preset plus the serving batcher contract,
#                      and the token-level source passes (AD01xx/AD02xx)
#                      gated against the committed diagnostics baseline:
#                      any finding not in tools/lint_baseline.txt fails
#                      (the `lint` CLI subcommand); plus a lock-order
#                      smoke that plants a deliberate AD0200 cycle in a
#                      temp workspace and asserts the analyzer trips
#   5. serve smoke   — two NDJSON requests piped through `serve --demo`,
#                      asserting image replies plus the stats and
#                      metrics probes; then one line of 100,000 `[`
#                      followed by a valid request must get a typed
#                      `bad_request` and then an image (the JSON
#                      nesting cap); and a non-UTF-8 line plus a line
#                      past the 1 MiB line cap must each get a typed
#                      `bad_request` before the next request is served
#   6. fault smokes  — a checkpointed training run killed mid-way via
#                      --max-steps and resumed to completion with a finite
#                      final loss, and a serve run with an injected
#                      per-request worker panic that still answers every
#                      request and restarts the worker
#   6b. fleet smokes — a 2-replica serve run with an injected replica-group
#                      kill must answer every request with bytes identical
#                      to a 1-replica unfaulted baseline; a tenant-bucket
#                      overload run must shed typed `overloaded` replies
#                      with a retry_after_ms hint and admit the retry after
#                      the bucket refills; a cancelled streaming request
#                      must resolve as `cancelled` (never an image) while
#                      the next request is still served; plus a
#                      threshold-free bench_serve liveness run
#                      (BENCH_SERVE_SMOKE=1)
#   7. thread smokes — the same sample rendered with --threads 1 and with
#                      AERO_THREADS=4 must be byte-identical (the sharded
#                      kernel layer's determinism contract, end to end
#                      through the full pipeline), plus a threshold-free
#                      bench_kernels liveness run (BENCH_KERNELS_SMOKE=1)
#                      that asserts bit-identity per workload and backend
#   7b. backend smoke — the same sample rendered under --backend reference
#                      and under AERO_BACKEND=blocked must be byte-identical
#                      (the ComputeBackend oracle-equivalence contract, end
#                      to end through the full pipeline; AD0112 keeps every
#                      caller on the dispatched path)
#   8. obs smokes    — the same sample rendered with and without --trace
#                      must be byte-identical (observation never perturbs
#                      results), and `profile` must print a span tree
#                      covering the DDIM denoise loop
#   8b. task smokes  — `sample --task inpaint` run twice with the same
#                      seed and mask must produce byte-identical images;
#                      a text-only request in the legacy wire schema and
#                      the same request folded under `task:{kind:"text"}`
#                      must serve byte-identical pixels; plus a
#                      threshold-free bench_tasks liveness run
#                      (BENCH_TASKS_SMOKE=1) asserting per-task
#                      determinism
#   9. model smokes  — the trained model exported to a single `.amdl`
#                      artifact, inspected (CRC verified), published into
#                      a registry, and served from it with a sample
#                      byte-identical to the directory loader's; a
#                      one-bit-flipped copy must be rejected with a typed
#                      corruption error; plus a bench_model liveness run
#                      (BENCH_MODEL_SMOKE=1) asserting q8 < f32 size and
#                      f32 round-trip losslessness
#  10. benchmark     — the aerobench package (its own manifest under
#                      crates/bench/src/bin/aerobench) builds every binary,
#                      including the in-process layer prober that calls the
#                      layer APIs, and passes its unit tests; then a
#                      `--smoke --seed 1` run must pass every correctness
#                      check and print the four seed-1 output digests its
#                      README records (same bytes for every later change)
#
# Everything runs with --offline: the build environment has no network and
# all dependencies are vendored shims (see shims/).

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --offline --workspace -q

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== static model + source lint (baseline-gated) =="
cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  lint --all --baseline tools/lint_baseline.txt

echo "== lock-order smoke: a planted AD0200 cycle must fail the gate =="
# Two functions taking the same two locks in opposite orders; the
# analyzer must refuse even though the baseline is supplied.
mkdir -p "$work/lockcycle/crates/demo/src"
cat > "$work/lockcycle/crates/demo/src/lib.rs" <<'EOF'
fn forward(s: &Shared) {
    let a = s.alpha.lock().unwrap();
    let b = s.beta.lock().unwrap();
    a.feed(&b);
}

fn backward(s: &Shared) {
    let b = s.beta.lock().unwrap();
    let a = s.alpha.lock().unwrap();
    b.feed(&a);
}
EOF
if cycle_out="$(cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  lint --all --baseline tools/lint_baseline.txt \
  --source-root "$work/lockcycle" 2>&1)"; then
  echo "lock-order smoke: planted cycle was not rejected"; exit 1
fi
echo "$cycle_out" | grep -q 'AD0200' \
  || { echo "lock-order smoke: failure did not cite AD0200"; \
       echo "$cycle_out"; exit 1; }

echo "== serving smoke test (NDJSON over stdin/stdout) =="
# Two generate requests plus stats and metrics probes piped through a
# demo server; assert two image replies, a stats line that counted both,
# and a metrics line carrying the registry-backed serve counters.
serve_out="$(printf '%s\n%s\n%s\n%s\n' \
  '{"type":"generate","id":"ci-a","prompt":"an aerial view of a park","seed":1}' \
  '{"type":"generate","id":"ci-b","prompt":"a parking lot at night","seed":2}' \
  '{"type":"stats"}' \
  '{"type":"metrics"}' \
  | cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
      serve --demo --scenes 3 --workers 1 --steps 4)"
echo "$serve_out" | head -c 400; echo
[ "$(echo "$serve_out" | grep -c '"type":"image"')" -eq 2 ] \
  || { echo "serve smoke: expected 2 image replies"; exit 1; }
echo "$serve_out" | grep -q '"type":"stats","completed":2' \
  || { echo "serve smoke: stats line missing or wrong count"; exit 1; }
echo "$serve_out" | grep -q '"type":"metrics"' \
  || { echo "serve smoke: metrics line missing"; exit 1; }
echo "$serve_out" | grep -q '"serve.completed":2' \
  || { echo "serve smoke: metrics line missing serve.completed counter"; exit 1; }

echo "== serve smoke: a deeply nested line gets a typed bad_request =="
# One line of 100,000 `[` would recurse the JSON parser off the reader's
# stack and abort the server; the nesting cap must answer it with a
# typed bad_request, and the next request must still be served.
deep_out="$( { printf '%*s\n' 100000 '' | tr ' ' '['; \
    echo '{"type":"generate","id":"ci-deep","prompt":"an aerial view of a park","seed":1}'; } \
  | cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
      serve --demo --scenes 3 --workers 1 --steps 4)"
echo "$deep_out" | head -c 400; echo
echo "$deep_out" | sed -n 1p | grep -q '"reason":"bad_request"' \
  || { echo "serve smoke: deeply nested line must get a typed bad_request"; exit 1; }
echo "$deep_out" | sed -n 2p | grep '"id":"ci-deep"' | grep -q '"type":"image"' \
  || { echo "serve smoke: the request after the nested line must be served"; exit 1; }

echo "== serve smoke: non-UTF-8 and over-long lines get typed bad_requests =="
# A line that is not UTF-8 used to end the session; a line of any length
# used to be buffered whole. Both must now get a typed bad_request, and
# the request after them must still be served.
bytes_out="$( { printf '\xff\xfe\n'; head -c 1048577 /dev/zero | tr '\0' 'a'; echo; \
    echo '{"type":"generate","id":"ci-bytes","prompt":"an aerial view of a park","seed":1}'; } \
  | cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
      serve --demo --scenes 3 --workers 1 --steps 4)"
echo "$bytes_out" | head -c 400; echo
echo "$bytes_out" | sed -n 1p | grep -q '"reason":"bad_request"' \
  || { echo "serve smoke: a non-UTF-8 line must get a typed bad_request"; exit 1; }
echo "$bytes_out" | sed -n 2p | grep -q '"reason":"bad_request"' \
  || { echo "serve smoke: an over-long line must get a typed bad_request"; exit 1; }
echo "$bytes_out" | sed -n 3p | grep '"id":"ci-bytes"' | grep -q '"type":"image"' \
  || { echo "serve smoke: the request after the bad lines must be served"; exit 1; }

echo "== fault smoke: kill + resume a checkpointed training run =="
# Kill the joint stage after its first step (checkpoint every step; the
# smoke preset runs 2 joint steps total, so the resumed run still has
# real work left to do)…
cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  train "$work/model" --scenes 4 --seed 3 \
  --checkpoint-dir "$work/ckpt" --checkpoint-every 1 --max-steps 1 \
  | tee "$work/train1.log"
grep -q "stopped at step 1" "$work/train1.log" \
  || { echo "fault smoke: expected the run to stop at --max-steps"; exit 1; }
# …then resume to completion and require a finite final loss.
cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  train "$work/model" --scenes 4 --seed 3 \
  --checkpoint-dir "$work/ckpt" --checkpoint-every 1 --resume \
  | tee "$work/train2.log"
grep -q "resumed from checkpoint step" "$work/train2.log" \
  || { echo "fault smoke: resume did not pick up a checkpoint"; exit 1; }
final_loss="$(sed -n 's/^final loss: \([0-9.eE+-]*\)$/\1/p' "$work/train2.log")"
case "$final_loss" in
  ''|*[Nn][Aa][Nn]*|*[Ii][Nn][Ff]*) echo "fault smoke: final loss not finite: '$final_loss'"; exit 1 ;;
esac
grep -q "saved trained pipeline" "$work/train2.log" \
  || { echo "fault smoke: resumed run did not complete and save"; exit 1; }

echo "== fault smoke: serve with an injected worker panic =="
fault_out="$(printf '%s\n%s\n%s\n%s\n' \
  '{"type":"generate","id":"ci-f0","prompt":"an aerial view of a park","seed":1}' \
  '{"type":"generate","id":"ci-f1","prompt":"a parking lot at night","seed":2}' \
  '{"type":"generate","id":"ci-f2","prompt":"a dense downtown block","seed":3}' \
  '{"type":"stats"}' \
  | cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
      serve --demo --scenes 3 --workers 1 --steps 4 --inject-panic-at 1 \
      2>"$work/serve_fault.log")"
echo "$fault_out" | head -c 400; echo
# Every request gets exactly one reply: two images plus one typed error…
[ "$(echo "$fault_out" | grep -c '"type":"image"')" -eq 2 ] \
  || { echo "fault smoke: expected 2 image replies around the panic"; exit 1; }
echo "$fault_out" | grep -q '"reason":"worker_error"' \
  || { echo "fault smoke: panicked request must get a typed worker_error"; exit 1; }
# …and by drain time the watchdog must have replaced the suspect worker
# (the post-drain summary is authoritative; the inline stats probe can
# legitimately run before the respawn lands).
grep -Eq '[1-9][0-9]* worker restart' "$work/serve_fault.log" \
  || { echo "fault smoke: expected a nonzero worker restart count"; \
       cat "$work/serve_fault.log"; exit 1; }

echo "== fleet smoke: replica kill is byte-identical to the unfaulted baseline =="
# Three requests served by one unfaulted replica, then the same three by a
# two-replica fleet whose first popped batch kills its whole group: the
# survivors plus the respawned group must produce the exact same bytes.
fleet_reqs="$(printf '%s\n%s\n%s\n' \
  '{"type":"generate","id":"fl-0","prompt":"an aerial view of a park","seed":21}' \
  '{"type":"generate","id":"fl-1","prompt":"a parking lot at night","seed":22}' \
  '{"type":"generate","id":"fl-2","prompt":"a dense downtown block","seed":23}')"
pixels() { sed -n 's/.*"rgb8_b64":"\([^"]*\)".*/\1/p'; }
base_px="$(printf '%s\n' "$fleet_reqs" \
  | cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
      serve "$work/model" --workers 1 --steps 4 | pixels)"
kill_px="$(printf '%s\n' "$fleet_reqs" \
  | cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
      serve "$work/model" --replicas 2 --workers 1 --steps 4 \
      --inject-replica-kill-at 0 2>"$work/serve_kill.log" | pixels)"
[ "$(printf '%s\n' "$base_px" | wc -l)" -eq 3 ] \
  || { echo "fleet smoke: baseline did not serve 3 images"; exit 1; }
[ "$base_px" = "$kill_px" ] \
  || { echo "fleet smoke: replica kill changed output bytes"; exit 1; }
grep -Eq '[1-9][0-9]* replica kill' "$work/serve_kill.log" \
  || { echo "fleet smoke: expected a nonzero replica kill count"; \
       cat "$work/serve_kill.log"; exit 1; }

echo "== fleet smoke: tenant overload sheds typed and the retry succeeds =="
# Burst of 3 against a 2-token bucket refilling at 4/s: the third request
# is shed with a retry_after_ms hint; a retry after the bucket refills is
# admitted and served.
overload_out="$( { printf '%s\n%s\n%s\n' \
    '{"type":"generate","id":"ov-0","prompt":"a plaza","seed":1,"tenant":"ci"}' \
    '{"type":"generate","id":"ov-1","prompt":"a plaza","seed":2,"tenant":"ci"}' \
    '{"type":"generate","id":"ov-2","prompt":"a plaza","seed":3,"tenant":"ci"}'; \
    sleep 1; \
    printf '%s\n%s\n' \
    '{"type":"generate","id":"ov-retry","prompt":"a plaza","seed":3,"tenant":"ci"}' \
    '{"type":"stats"}'; } \
  | cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
      serve "$work/model" --workers 1 --steps 4 --tenant-rate 4 --tenant-burst 2)"
echo "$overload_out" | grep -q '"id":"ov-2","reason":"overloaded"' \
  || { echo "fleet smoke: over-budget request must shed typed overloaded"; exit 1; }
echo "$overload_out" | grep '"id":"ov-2"' | grep -q '"retry_after_ms":' \
  || { echo "fleet smoke: overloaded reply missing retry_after_ms hint"; exit 1; }
echo "$overload_out" | grep '"id":"ov-retry"' | grep -q '"type":"image"' \
  || { echo "fleet smoke: post-refill retry must be served"; exit 1; }
echo "$overload_out" | grep -q '"completed":3' \
  || { echo "fleet smoke: expected 3 completed after the shed"; exit 1; }

echo "== fleet smoke: a cancelled request never becomes an image =="
# The cancel control line lands while ci-c0 is queued or sampling; it must
# resolve as a typed `cancelled` reply and the next request still serves.
cancel_out="$(printf '%s\n%s\n%s\n%s\n' \
  '{"type":"generate","id":"ci-c0","prompt":"a stadium","seed":5,"steps":64,"stream":true}' \
  '{"type":"cancel","id":"ci-c0"}' \
  '{"type":"generate","id":"ci-c1","prompt":"a stadium","seed":6}' \
  '{"type":"stats"}' \
  | cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
      serve "$work/model" --workers 1 --steps 4)"
echo "$cancel_out" | grep -q '"id":"ci-c0","reason":"cancelled"' \
  || { echo "fleet smoke: cancelled request must get a typed cancelled reply"; exit 1; }
echo "$cancel_out" | grep '"id":"ci-c0"' | grep -q '"type":"image"' \
  && { echo "fleet smoke: cancelled request must not produce an image"; exit 1; }
echo "$cancel_out" | grep -q '"type":"cancel","id":"ci-c0","ok":true' \
  || { echo "fleet smoke: cancel line must be acknowledged"; exit 1; }
echo "$cancel_out" | grep '"id":"ci-c1"' | grep -q '"type":"image"' \
  || { echo "fleet smoke: request after a cancel must still be served"; exit 1; }
echo "$cancel_out" | grep -q '"completed":1' \
  || { echo "fleet smoke: expected exactly 1 completed around the cancel"; exit 1; }

echo "== fleet smoke: bench_serve liveness =="
BENCH_SERVE_SMOKE=1 cargo run --offline -q -p aero-bench --bin bench_serve

echo "== thread smoke: sample determinism across thread counts =="
# The model trained by the fault smoke is reused; one sample rendered
# under a pinned single-thread policy and one under a 4-thread policy
# (via the env knob, so both configuration paths are exercised) must
# produce byte-identical images.
cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  sample "$work/model" "$work/t1.ppm" --seed 11 --threads 1
AERO_THREADS=4 cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  sample "$work/model" "$work/t4.ppm" --seed 11
cmp "$work/t1.ppm" "$work/t4.ppm" \
  || { echo "thread smoke: 1-thread and 4-thread samples differ"; exit 1; }

echo "== backend smoke: sample determinism across compute backends =="
# Same model, same seed: the serial Reference oracle (via the CLI flag)
# and the cache-blocked Blocked backend (via the env knob, so both
# configuration paths are exercised) must produce byte-identical images —
# and both must match the earlier default-backend thread-smoke sample.
cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  sample "$work/model" "$work/bref.ppm" --seed 11 --threads 1 --backend reference
AERO_BACKEND=blocked cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  sample "$work/model" "$work/bblk.ppm" --seed 11 --threads 1
cmp "$work/bref.ppm" "$work/bblk.ppm" \
  || { echo "backend smoke: reference and blocked samples differ"; exit 1; }
cmp "$work/t1.ppm" "$work/bblk.ppm" \
  || { echo "backend smoke: blocked sample differs from the default-backend sample"; exit 1; }

echo "== thread smoke: bench_kernels liveness =="
BENCH_KERNELS_SMOKE=1 cargo run --offline -q -p aero-bench --bin bench_kernels

echo "== model smoke: export → inspect → reload → byte-identical sample =="
# Pack the fault-smoke model into a single f32 artifact, verify it loads
# (CRC + header decode via `inspect`), publish it into a registry, and
# require a sample served straight off the artifact to be byte-identical
# to the directory loader's.
cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  model export "$work/model" "$work/model.amdl" \
  --registry "$work/registry" --name smoke
inspect_out="$(cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  model inspect "$work/model.amdl")"
echo "$inspect_out" | grep -q 'checksum verified' \
  || { echo "model smoke: inspect did not verify the checksum"; exit 1; }
echo "$inspect_out" | grep -q 'unet\.' \
  || { echo "model smoke: inspect tensor table missing unet tensors"; exit 1; }
cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  model list "$work/registry" | grep -q 'smoke@1 .*verified' \
  || { echo "model smoke: registry list missing a verified smoke@1"; exit 1; }
# Byte-compare: the NDJSON server booted from the registry artifact must
# produce the exact image the directory-loaded server produces (only the
# latency telemetry may differ between runs, so compare the pixels).
req='{"type":"generate","id":"ci-m","prompt":"an aerial view of a park","seed":41}'
pixels() { sed -n 's/.*"rgb8_b64":"\([^"]*\)".*/\1/p'; }
dir_img="$(printf '%s\n' "$req" \
  | cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
      serve "$work/model" --workers 1 --steps 4 | pixels)"
amdl_img="$(printf '%s\n' "$req" \
  | cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
      serve --workers 1 --steps 4 --registry "$work/registry" --model smoke@1 \
  | pixels)"
[ -n "$dir_img" ] && [ "$dir_img" = "$amdl_img" ] \
  || { echo "model smoke: artifact-served sample differs from directory-served"; exit 1; }

echo "== model smoke: a corrupt artifact is rejected typed =="
cp "$work/model.amdl" "$work/model-corrupt.amdl"
# Flip one bit in the middle of the payload; the CRC gate must refuse
# before any tensor is decoded.
size="$(wc -c < "$work/model-corrupt.amdl")"
mid="$((size / 2))"
byte="$(od -An -tu1 -j "$mid" -N1 "$work/model-corrupt.amdl" | tr -d ' ')"
printf "$(printf '\\%03o' "$((byte ^ 1))")" \
  | dd of="$work/model-corrupt.amdl" bs=1 seek="$mid" count=1 conv=notrunc status=none
if corrupt_out="$(cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  model inspect "$work/model-corrupt.amdl" 2>&1)"; then
  echo "model smoke: corrupt artifact was not rejected"; exit 1
fi
echo "$corrupt_out" | grep -qi 'corrupt' \
  || { echo "model smoke: corrupt-artifact error was not typed"; \
       echo "$corrupt_out"; exit 1; }

echo "== model smoke: bench_model liveness =="
(cd "$work" && BENCH_MODEL_SMOKE=1 cargo run --offline -q \
  --manifest-path "$OLDPWD/Cargo.toml" -p aero-bench --bin bench_model)

echo "== obs smoke: tracing never perturbs sample output =="
# Same model, same seed, tracing on vs off: the images must be
# byte-identical and the trace must actually contain spans.
cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  sample "$work/model" "$work/traced.ppm" --seed 11 --trace "$work/trace.ndjson"
cmp "$work/t1.ppm" "$work/traced.ppm" \
  || { echo "obs smoke: traced and untraced samples differ"; exit 1; }
grep -q '"span":"pipeline.sample_latents/sampler.ddim/unet.denoise_step"' "$work/trace.ndjson" \
  || { echo "obs smoke: trace NDJSON missing the denoise-step span"; exit 1; }
grep -q '"metric":"tensor.matmul.calls"' "$work/trace.ndjson" \
  || { echo "obs smoke: trace NDJSON missing kernel metrics"; exit 1; }

echo "== task smoke: inpaint determinism (same seed + mask → identical bytes) =="
# Two CLI inpaint runs with the same seed, source, and keypoint box must
# be byte-identical; the view task must also render at native resolution.
cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  sample "$work/model" "$work/inp1.ppm" --seed 13 --task inpaint \
  --box car,4,4,11,10 --prompt "a car at the center"
cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  sample "$work/model" "$work/inp2.ppm" --seed 13 --task inpaint \
  --box car,4,4,11,10 --prompt "a car at the center"
cmp "$work/inp1.ppm" "$work/inp2.ppm" \
  || { echo "task smoke: same-seed inpaint runs differ"; exit 1; }
cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  sample "$work/model" "$work/view.ppm" --seed 13 --task view \
  --target-view 0.6,60,30 | grep -q 'wrote' \
  || { echo "task smoke: view translation sample failed"; exit 1; }

echo "== task smoke: task:{kind:text} wire form is byte-identical to the legacy schema =="
# The unified request schema must be a pure superset: a text request in
# the pre-task wire form and the same request folded under a task object
# must produce the exact same pixels.
pixels() { sed -n 's/.*"rgb8_b64":"\([^"]*\)".*/\1/p'; }
legacy_px="$(printf '%s\n' \
  '{"type":"generate","id":"sc-old","prompt":"an aerial view of a park","seed":51}' \
  | cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
      serve "$work/model" --workers 1 --steps 4 | pixels)"
task_px="$(printf '%s\n' \
  '{"type":"generate","id":"sc-new","seed":51,"task":{"kind":"text","prompt":"an aerial view of a park"}}' \
  | cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
      serve "$work/model" --workers 1 --steps 4 | pixels)"
[ -n "$legacy_px" ] && [ "$legacy_px" = "$task_px" ] \
  || { echo "task smoke: task-folded text request differs from the legacy schema"; exit 1; }

echo "== task smoke: bench_tasks liveness =="
(cd "$work" && BENCH_TASKS_SMOKE=1 cargo run --offline -q \
  --manifest-path "$OLDPWD/Cargo.toml" -p aero-bench --bin bench_tasks)

echo "== obs smoke: profile prints a span tree =="
profile_out="$(cargo run --offline -q -p aerodiffusion-suite --bin aerodiffusion_cli -- \
  profile "$work/model" --seed 11)"
echo "$profile_out" | head -c 600; echo
echo "$profile_out" | grep -q 'unet.denoise_step ×' \
  || { echo "obs smoke: profile output missing the aggregated denoise line"; exit 1; }
echo "$profile_out" | grep -q 'tensor.dispatch' \
  || { echo "obs smoke: profile output missing the metrics table"; exit 1; }

echo "== benchmark package: build every binary and run its unit tests =="
# The runner builds the layer prober only for traced runs, so without
# this step a layer API change could break it unnoticed.
bench_manifest=crates/bench/src/bin/aerobench/Cargo.toml
cargo build --release --offline --manifest-path "$bench_manifest" --bins
cargo test --offline --manifest-path "$bench_manifest"

echo "== benchmark digests: seed-1 outputs are byte-identical to the recorded ones =="
# Each workload prints an FNV-1a digest of its seed-determined output
# (serve probe pixels, the cold paper sample, the trained paper model).
# A smoke run prints the same digests as a full run, so this pins "same
# bytes" for every performance change.
bench_out="$(cargo run --release --offline -q --manifest-path "$bench_manifest" \
  --bin aerobench -- --smoke --seed 1)"
echo "$bench_out" | grep 'digest'
echo "$bench_out" | tail -n 1 | grep -q '"correct":true' \
  || { echo "benchmark digests: the smoke run failed a correctness check"; exit 1; }
for want in serve_repeat:76ee5cf43414013b serve_mixed:3c1e08dcfe29f8e8 \
    sample_paper:eb8a4efde97265f6 train_paper:55a6d5084870222e; do
  echo "$bench_out" | grep -Eq "^${want%%:*} +digest fnv64:${want#*:}\$" \
    || { echo "benchmark digests: ${want%%:*} did not print fnv64:${want#*:}"; exit 1; }
done

echo "CI: all gates passed"
