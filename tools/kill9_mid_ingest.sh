#!/usr/bin/env bash
# kill -9 a durable nous_cli while it is ingesting, then check that the
# next session recovers by replaying the WAL.
#
#   tools/kill9_mid_ingest.sh <nous_cli binary> <fsync policy: always|never>
#
# A slow producer pipes `:ingest` lines into the CLI after it has built
# its demo KG. Every `:ingest` commits one WAL record and then
# finalizes, which checkpoints and resets the WAL, so the WAL is live
# only part of the time. The script freezes the CLI (SIGSTOP) at short
# intervals and kills it only while the WAL holds a record written after
# the last checkpoint. The recovery session must then report
# "replayed batches: N" with N >= 1; the script fails if nothing was
# replayed.
set -euo pipefail

cli=$1
fsync=$2
dir=$(mktemp -d)
log="$dir/cli.log"

(
  i=0
  while true; do
    echo ":ingest Startup$i acquired SkyWard Labs $i."
    i=$((i + 1))
    sleep 0.2
  done
) | "$cli" 60 --wal-dir "$dir/wal" --fsync "$fsync" > "$log" 2>&1 &
pid=$!

killed=0
for _ in $(seq 1 600); do
  sleep 0.1
  grep -q 'ingested; KG now has' "$log" || continue
  kill -STOP "$pid"
  # The WAL starts with an 8-byte magic; anything more is a record. It
  # is uncovered by the checkpoint only if written after it.
  size=$(stat -c %s "$dir/wal/wal.log" 2>/dev/null || echo 0)
  if [ "$size" -gt 8 ] && [ "$dir/wal/wal.log" -nt "$dir/wal/checkpoint.nous" ]
  then
    kill -9 "$pid"
    killed=1
    break
  fi
  kill -CONT "$pid"
done
[ "$killed" = 1 ] || kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
if [ "$killed" != 1 ]; then
  echo "never caught the CLI with a live WAL" >&2
  cat "$log" >&2
  exit 1
fi

recovered=$(printf ':stats\n:quit\n' | timeout 300 \
  "$cli" 60 --wal-dir "$dir/wal" --fsync "$fsync")
echo "$recovered"
grep -Eq 'Recovered KG from .* \(replayed batches: [1-9]' <<< "$recovered" \
  || { echo "recovery replayed no WAL batch" >&2; exit 1; }
rm -rf "$dir"
