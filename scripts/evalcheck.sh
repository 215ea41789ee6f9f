#!/bin/sh
# evalcheck.sh — end-to-end check of the eval commands' one collection
# path, through the actual binaries: evalfit (table8, table9, table10,
# fig4) and evalgen must print the same stdout whichever way the trace
# arrives —
#
#   - a binary file and a text file, scanned incrementally;
#   - stdin (-i - / -real -), read whole;
#   - a text copy with three (UE, type) ties swapped: sorted by time but
#     not canonically, which the streamed scan refuses and the command
#     collects again from the trace sorted in memory, saying so on stderr —
#     on those runs and on no other.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/worldgen" ./cmd/worldgen
go build -o "$tmp/evalfit" ./cmd/evalfit
go build -o "$tmp/evalgen" ./cmd/evalgen

# The world of scripts/shardcheck.sh (600 UEs x 6 h, six ties to swap),
# and a second draw as evalgen's synthesized side.
"$tmp/worldgen" -ues 600 -hours 6 -seed 7 -binary -o "$tmp/world.trace" 2>/dev/null
"$tmp/worldgen" -ues 600 -hours 6 -seed 7 -o "$tmp/world.txt" 2>/dev/null
"$tmp/worldgen" -ues 600 -hours 6 -seed 8 -binary -o "$tmp/syn.trace" 2>/dev/null
awk '
	function flush() { if (have) print held; have = 0 }
	$1 != "E" { flush(); print; next }
	have && swaps < 3 && $2 == t && $0 != held { print; flush(); swaps++; next }
	{ flush(); held = $0; t = $2; have = 1 }
	END { flush(); exit swaps < 3 }
' "$tmp/world.txt" >"$tmp/ties.txt" || {
	echo "evalcheck: FAIL — fewer than three ties to swap in the world trace" >&2
	exit 1
}
if cmp -s "$tmp/world.txt" "$tmp/ties.txt"; then
	echo "evalcheck: FAIL — the tie-permuted copy equals the trace" >&2
	exit 1
fi

# run NOTE OUT CMD ARGS...: run CMD ARGS (stdin passed through) with stdout
# to OUT, and require the in-memory note on its stderr if NOTE is yes, its
# absence if no.
run() {
	want="$1"
	out="$2"
	shift 2
	"$@" >"$out" 2>"$tmp/stderr" || {
		cat "$tmp/stderr" >&2
		echo "evalcheck: FAIL — $* exited non-zero" >&2
		exit 1
	}
	got=no
	if grep -q 'collecting from the trace sorted in memory' "$tmp/stderr"; then got=yes; fi
	if [ "$got" != "$want" ]; then
		echo "evalcheck: FAIL — in-memory note on stderr: $got, want $want ($*)" >&2
		exit 1
	fi
}

# same WHAT FILE: FILE must be the binary-file run's stdout.
same() {
	if ! cmp -s "$tmp/want" "$2"; then
		echo "evalcheck: FAIL — $1 differs from the run on the binary file" >&2
		exit 1
	fi
}

for exp in table8 table9 table10 fig4; do
	run no "$tmp/want" "$tmp/evalfit" -thetan 25 -exp $exp -i "$tmp/world.trace"
	if [ ! -s "$tmp/want" ]; then
		echo "evalcheck: FAIL — evalfit -exp $exp printed nothing" >&2
		exit 1
	fi
	run no "$tmp/got" "$tmp/evalfit" -thetan 25 -exp $exp -i "$tmp/world.txt"
	same "evalfit -exp $exp of the text file" "$tmp/got"
	run no "$tmp/got" "$tmp/evalfit" -thetan 25 -exp $exp -i - <"$tmp/world.trace"
	same "evalfit -exp $exp from stdin" "$tmp/got"
	run yes "$tmp/got" "$tmp/evalfit" -thetan 25 -exp $exp -i "$tmp/ties.txt"
	same "evalfit -exp $exp of the tie-permuted text file" "$tmp/got"
done

run no "$tmp/want" "$tmp/evalgen" -real "$tmp/world.trace" -syn "$tmp/syn.trace"
run no "$tmp/got" "$tmp/evalgen" -real "$tmp/world.txt" -syn "$tmp/syn.trace"
same "evalgen of the text file" "$tmp/got"
run no "$tmp/got" "$tmp/evalgen" -real - -syn "$tmp/syn.trace" <"$tmp/world.trace"
same "evalgen from stdin" "$tmp/got"
run yes "$tmp/got" "$tmp/evalgen" -real "$tmp/ties.txt" -syn "$tmp/syn.trace"
same "evalgen of the tie-permuted text file" "$tmp/got"

echo "evalcheck: OK — evalfit table8/table9/table10/fig4 and evalgen print the same tables from a binary file, a text file, stdin and a tie-permuted text copy (collected from the sorted trace, with the note)"
