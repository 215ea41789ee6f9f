#!/bin/sh
# shardcheck.sh — end-to-end check of fitmodel's one driver, through the
# actual binaries and files users run: for each of the four methods
# (base, v1, v2, ours), fit a small world trace plain, then every other
# way the driver promises to take it, and require each model file to be
# identical to the method's plain one byte for byte. Base and V1 are the
# methods whose checkpoints carry free events and no clustering.
#
#   - the same bytes on stdin (-i -, from a pipe);
#   - as four hash shards (-shards/-shard -partial) merged in a shuffled
#     order (-merge) — ShardSource, PartialFit, the partialfit/1 codec,
#     Merge, Build, the chain the unit tests cover in-process;
#   - checkpointed (-checkpoint-every -partial), then resumed (-resume);
#   - and all of that again from a text copy of the trace with three
#     (UE, type) ties swapped: sorted by time but not canonically, which
#     the streamed scan refuses and the driver refits from the trace sorted
#     in memory, saying so on stderr — on those runs and on no other.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/worldgen" ./cmd/worldgen
go build -o "$tmp/fitmodel" ./cmd/fitmodel

# 600 UEs x 6 h is the smallest world here with three ties to swap (it has
# six in 18 170 events).
"$tmp/worldgen" -ues 600 -hours 6 -seed 7 -binary -o "$tmp/world.trace" 2>/dev/null
"$tmp/worldgen" -ues 600 -hours 6 -seed 7 -o "$tmp/world.txt" 2>/dev/null
awk '
	function flush() { if (have) print held; have = 0 }
	$1 != "E" { flush(); print; next }
	have && swaps < 3 && $2 == t && $0 != held { print; flush(); swaps++; next }
	{ flush(); held = $0; t = $2; have = 1 }
	END { flush(); exit swaps < 3 }
' "$tmp/world.txt" >"$tmp/ties.txt" || {
	echo "shardcheck: FAIL — fewer than three ties to swap in the world trace" >&2
	exit 1
}

# fit NOTE ARGS...: run fitmodel ARGS, and require the in-memory refit
# note on its stderr if NOTE is yes, its absence if no.
fit() {
	want="$1"
	shift
	"$tmp/fitmodel" -method "$method" -thetan 25 "$@" 2>"$tmp/stderr" || {
		cat "$tmp/stderr" >&2
		exit 1
	}
	got=no
	if grep -q 'refitting from the trace sorted in memory' "$tmp/stderr"; then got=yes; fi
	if [ "$got" != "$want" ]; then
		echo "shardcheck: FAIL — in-memory refit note on stderr: $got, want $want (fitmodel -method $method $*)" >&2
		exit 1
	fi
}

# same WHAT FILE: FILE must be the plain fit's model.
same() {
	if ! cmp -s "$tmp/unsharded.json" "$2"; then
		echo "shardcheck: FAIL — $1 differs from the plain $method fit of the canonical trace" >&2
		exit 1
	fi
}

for method in base v1 v2 ours; do
	fit no -i "$tmp/world.trace" -o "$tmp/unsharded.json"
	grep -q "\"method\":\"$method\"" "$tmp/unsharded.json" || {
		echo "shardcheck: FAIL — the plain fit is not labelled $method" >&2
		exit 1
	}

	cat "$tmp/world.trace" | fit no -i - -o "$tmp/stdin.json"
	same "the fit from stdin" "$tmp/stdin.json"

	for input in world.trace ties.txt; do
		note=no
		if [ "$input" = ties.txt ]; then
			note=yes
			fit yes -i "$tmp/ties.txt" -o "$tmp/ties.json"
			same "the fit of the tie-permuted text trace" "$tmp/ties.json"
		fi

		for s in 0 1 2 3; do
			fit $note -shards 4 -shard "$s" -i "$tmp/$input" -partial "$tmp/part-$s.json"
		done
		# Merge in a shuffled order on purpose: order must not matter.
		fit no -merge "$tmp/part-2.json,$tmp/part-0.json,$tmp/part-3.json,$tmp/part-1.json" -o "$tmp/merged.json"
		same "the merged 4-shard model of $input" "$tmp/merged.json"

		# Checkpoint/resume through the CLI: write the partial state with
		# periodic checkpoints (no model build), then resume it against the
		# same trace and build. Mid-scan kill/resume equivalence is covered by
		# TestPartialFitCheckpointResume; this checks the file plumbing.
		fit $note -i "$tmp/$input" -checkpoint-every 2000 -partial "$tmp/ckpt.json"
		grep -q "\"method\":\"$method\"" "$tmp/ckpt.json" || {
			echo "shardcheck: FAIL — the checkpoint is not labelled $method" >&2
			exit 1
		}
		fit $note -resume "$tmp/ckpt.json" -i "$tmp/$input" -o "$tmp/resumed.json"
		same "the resumed fit of $input" "$tmp/resumed.json"
	done
done

echo "shardcheck: OK — for base, v1, v2 and ours: stdin, 4-shard merge and checkpoint/resume, from the canonical trace and from its tie-permuted text copy, are byte-identical to the plain fit"
