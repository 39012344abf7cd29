#!/usr/bin/env bash
# End-to-end smoke of the dfsm_corpus workbench, mirrored by the CI
# corpus-snapshot job: generate a corpus in both formats, byte-compare
# stats JSON across formats AND across thread counts, verify round
# trips and the serial-vs-parallel reload of both formats, then corrupt
# one snapshot byte and require the loader to refuse with exit 1 and a
# "<file>:<column>:" message. Finally `corrupt` itself must refuse, with
# exit 2 and the file untouched, a shard too short to hold a header or
# one that cannot be read.
set -u

tool="$1"
work="$2"

rm -rf "$work"
mkdir -p "$work"

fail() {
  echo "FAIL: $1"
  exit 1
}

"$tool" gen --n 20000 --seed 42 --out "$work/c" --shards 4 --format both \
  --quiet || fail "gen exited $?"

"$tool" stats --in "$work/c.csv" --out "$work/stats-csv.json" \
  || fail "stats over csv exited $?"
"$tool" stats --in "$work/c.colsnap" --out "$work/stats-snap.json" \
  || fail "stats over colsnap exited $?"
"$tool" stats --in "$work/c.colsnap" --threads 0 \
  --out "$work/stats-t0.json" || fail "stats at --threads 0 exited $?"
"$tool" stats --in "$work/c.colsnap" --threads 4 \
  --out "$work/stats-t4.json" || fail "stats at --threads 4 exited $?"

cmp -s "$work/stats-csv.json" "$work/stats-snap.json" \
  || fail "stats differ between csv and colsnap loads"
cmp -s "$work/stats-t0.json" "$work/stats-t4.json" \
  || fail "stats differ between --threads 0 and --threads 4"

"$tool" verify --in "$work/c.colsnap" >/dev/null || fail "verify exited $?"
"$tool" verify --in "$work/c.csv" --threads 4 >/dev/null \
  || fail "verify over csv at --threads 4 exited $?"

# Negative arm: one flipped payload byte must be refused, loudly.
"$tool" corrupt --in "$work/c.colsnap" --shard 1 --mode checksum \
  --column year >/dev/null || fail "corrupt exited $?"
out=$("$tool" stats --in "$work/c.colsnap" 2>&1)
code=$?
if [ "$code" -ne 1 ]; then
  fail "expected exit 1 on corrupt snapshot, got $code"
fi
if ! printf '%s' "$out" | grep -q ":year: checksum mismatch"; then
  echo "$out"
  fail "refusal message does not name the file, column, and reason"
fi

# Negative arm for the corrupter: a 3-byte shard and a missing shard
# must both be refused with exit 2, and the short one left as it was.
"$tool" gen --n 100 --seed 1 --out "$work/s" --shards 2 --format colsnap \
  --quiet || fail "gen of the short-shard corpus exited $?"
short="$work/s-00001-of-00002.colsnap"
printf 'abc' > "$short"
"$tool" corrupt --in "$work/s.colsnap" --shard 1 --mode epoch >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "expected exit 2 corrupting a 3-byte shard, got $code"
[ "$(cat "$short")" = "abc" ] || fail "corrupt rewrote a shard it refused"
rm -f "$short"
"$tool" corrupt --in "$work/s.colsnap" --shard 1 --mode epoch >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "expected exit 2 corrupting a missing shard, got $code"
[ ! -e "$short" ] || fail "corrupt created a shard it could not read"

echo "ok: formats agree, thread counts agree, corruption refused with exit 1,"
echo "    short or missing shards refused by corrupt with exit 2"
exit 0
