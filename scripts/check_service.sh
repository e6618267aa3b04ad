#!/usr/bin/env bash
# Render-service gate: seeded synthetic traffic over the frame
# pipeline, in exact virtual time.
# Usage: scripts/check_service.sh [build-dir]   (default: $BUILD_DIR,
# then build)
#
# Invariants checked:
#   * P=32 soak: an overloaded 8-session run exits 0 on every seed in
#     the sweep, replays byte-identically (full stdout, including the
#     per-session table and the latency distribution), and is
#     byte-identical at one and at four worker threads;
#   * conservation on every cell: arrivals == delivered + dropped,
#     parsed from the load: line;
#   * P=1024 smoke: one thousand-rank submission stream on the fiber
#     pool finishes inside the timeout — sessions are a front end,
#     not a scalability regression;
#   * zero-shed identity: with an uncontended queue the service layer
#     admits everything (0 dropped) — admission is pay-for-use.
set -euo pipefail
BUILD="${1:-${BUILD_DIR:-build}}"
RTCOMP="$BUILD/tools/rtcomp"
[[ -x $RTCOMP ]] || { echo "error: $RTCOMP not built" >&2; exit 1; }
RT=(timeout 300 "$RTCOMP")

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
fail=0

# Overloaded P=32 operating point: arrivals outrun the pipeline, so
# admission control and the batcher both do real work on every seed.
SOAK=(render --service --dataset engine --ranks 32 --image 128
      --volume 48 --method rt_n --blocks 3 --codec trle
      --sessions 8 --requests 6 --arrival-rate 200 --queue-cap 2
      --admission shed-oldest --max-in-flight 2)

check_load_conservation() {  # <label> <stdout>
  local label="$1" out="$2" arrived delivered dropped
  arrived=$(sed -n 's/^load: \([0-9]*\) arrivals.*/\1/p' <<<"$out")
  delivered=$(sed -n 's/^load: .* \([0-9]*\) delivered.*/\1/p' <<<"$out")
  dropped=$(sed -n 's/^load: .* \([0-9]*\) dropped.*/\1/p' <<<"$out")
  if [[ -z $arrived || -z $delivered || -z $dropped ]]; then
    echo "FAIL $label  (could not parse load: line)"
    echo "$out" | sed 's/^/     /'; fail=1; return 1
  fi
  if (( arrived != delivered + dropped )); then
    echo "FAIL $label  (conservation: $arrived != $delivered + $dropped)"
    fail=1; return 1
  fi
}

# --- P=32 soak: seed sweep, determinism, worker-count byte-identity --
for seed in 1 42 909; do
  label="soak P=32 seed=$seed"
  if ! "${RT[@]}" "${SOAK[@]}" --traffic-seed "$seed" \
      --workers 1 > "$TMP/w1.txt" 2>&1; then
    echo "FAIL $label  (nonzero exit)"
    sed 's/^/     /' "$TMP/w1.txt"; fail=1; continue
  fi
  "${RT[@]}" "${SOAK[@]}" --traffic-seed "$seed" \
    --workers 1 > "$TMP/w1b.txt" 2>&1
  if ! cmp -s "$TMP/w1.txt" "$TMP/w1b.txt"; then
    echo "FAIL $label  (replay not byte-identical)"
    diff "$TMP/w1.txt" "$TMP/w1b.txt" || true
    fail=1; continue
  fi
  "${RT[@]}" "${SOAK[@]}" --traffic-seed "$seed" \
    --workers 4 > "$TMP/w4.txt" 2>&1
  if ! cmp -s "$TMP/w1.txt" "$TMP/w4.txt"; then
    echo "FAIL $label  (--workers 1 and --workers 4 disagree)"
    diff "$TMP/w1.txt" "$TMP/w4.txt" || true
    fail=1; continue
  fi
  check_load_conservation "$label" "$(cat "$TMP/w1.txt")" || continue
  if ! grep -q 'shed-oldest @ cap 2' "$TMP/w1.txt" ||
     ! grep -qE 'dropped \([1-9][0-9]* shed' "$TMP/w1.txt"; then
    echo "FAIL $label  (overload never engaged admission control)"
    sed 's/^/     /' "$TMP/w1.txt"; fail=1; continue
  fi
  echo "ok   $label"
done

# Distinct seeds must produce distinct traffic (the sweep is not
# accidentally re-running one seed three times).
if cmp -s "$TMP/w1.txt" "$TMP/w1b.txt" 2>/dev/null; then
  "${RT[@]}" "${SOAK[@]}" --traffic-seed 1 > "$TMP/s1.txt" 2>&1
  "${RT[@]}" "${SOAK[@]}" --traffic-seed 42 > "$TMP/s42.txt" 2>&1
  if cmp -s "$TMP/s1.txt" "$TMP/s42.txt"; then
    echo "FAIL seed sensitivity  (seeds 1 and 42 gave identical runs)"
    fail=1
  else
    echo "ok   seed sensitivity (seeds 1 and 42 differ)"
  fi
fi

# --- Zero-shed identity: uncontended queue admits everything ---------
out=$("${RT[@]}" "${SOAK[@]}" --traffic-seed 1 --queue-cap 64 \
  --arrival-rate 20 2>&1) || {
  echo "FAIL zero-shed  (nonzero exit)"; fail=1; }
if ! grep -q ' 0 dropped (0 shed, 0 rejected, 0 expired)' <<<"$out"; then
  echo "FAIL zero-shed  (uncontended run still dropped requests)"
  echo "$out" | sed 's/^/     /'; fail=1
else
  echo "ok   zero-shed (uncontended run admitted everything)"
fi

# --- P=1024 smoke: the front end rides the scaled pipeline -----------
# The renderer needs volume_n >= ranks (one slab slice per rank), so
# this is a real 1024^3 render — the long pole is the renderer, not the
# service. Two single-request sessions keep it to two submissions.
label="smoke P=1024"
if out=$(timeout 600 "$RTCOMP" render --service --dataset engine \
    --ranks 1024 --image 32 --volume 1024 --method hier --blocks 1 \
    --codec trle --group-size 32 --sessions 2 --requests 1 \
    --arrival-rate 50 2>&1); then
  check_load_conservation "$label" "$out" && echo "ok   $label"
else
  echo "FAIL $label  (nonzero exit)"
  echo "$out" | sed 's/^/     /'; fail=1
fi

if [[ $fail -ne 0 ]]; then echo "service gate FAILED"; exit 1; fi
echo "service gate passed"
