#!/bin/sh
# End-to-end command-line tour: synthesize, verify, simulate, export.
# Run from the repository root as `PYTHONPATH=src sh demos/05_cli_tour.sh`,
# which calls `python3 -m astra`; once installed, `ASTRA=astra` selects the
# console script instead.  $ASTRA is split on spaces, so it must name an
# interpreter path without them.
set -e
ASTRA="${ASTRA:-python3 -m astra}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

cat > "$workdir/patrol.json" <<'EOF'
{
  "states": ["q1", "q2", "q3"],
  "controls": ["a1", "b1", "a2", "a3"],
  "disturbances": ["1"],
  "transitions": [
    {"from": "q1", "control": "a1", "disturbance": "1", "to": "q2"},
    {"from": "q1", "control": "b1", "disturbance": "1", "to": "q3"},
    {"from": "q1", "control": "a2", "disturbance": "1", "to": "q1"},
    {"from": "q1", "control": "a3", "disturbance": "1", "to": "q1"},
    {"from": "q2", "control": "a2", "disturbance": "1", "to": "q1"},
    {"from": "q2", "control": "a2", "disturbance": "1", "to": "q3"},
    {"from": "q2", "control": "a1", "disturbance": "1", "to": "q2"},
    {"from": "q2", "control": "b1", "disturbance": "1", "to": "q2"},
    {"from": "q2", "control": "a3", "disturbance": "1", "to": "q2"},
    {"from": "q3", "control": "a3", "disturbance": "1", "to": "q3"},
    {"from": "q3", "control": "a1", "disturbance": "1", "to": "q3"},
    {"from": "q3", "control": "b1", "disturbance": "1", "to": "q3"},
    {"from": "q3", "control": "a2", "disturbance": "1", "to": "q3"}
  ],
  "valuation": {"q1": ["p1", "p2"], "q2": ["p2", "p3"], "q3": ["p1", "p3"]}
}
EOF

echo "== synthesize a plan for p2 U p3"
$ASTRA synth --system "$workdir/patrol.json" --spec "p2 U p3" \
      --out "$workdir/plan.json"
cat "$workdir/plan.json"

echo "== verify it independently"
$ASTRA verify --system "$workdir/patrol.json" --spec "p2 U p3" \
      --plan "$workdir/plan.json"

echo "== a spec it does not meet prints a counterexample (exit 1)"
if $ASTRA verify --system "$workdir/patrol.json" --spec "G p1" \
      --plan "$workdir/plan.json"; then exit 1; else test $? -eq 1; fi

echo "== simulate 8 steps under seeded random disturbances"
$ASTRA simulate --system "$workdir/patrol.json" --spec "p2 U p3" \
      --plan "$workdir/plan.json" --seed 11 --steps 8

echo "== simulate against the rank-guided adversary"
$ASTRA simulate --system "$workdir/patrol.json" --spec "p2 U p3" \
      --plan "$workdir/plan.json" --policy adversarial --steps 8

echo "== export DOT renderings"
$ASTRA export system --system "$workdir/patrol.json" --out "$workdir/system.dot"
$ASTRA export product --system "$workdir/patrol.json" --spec "p2 U p3" \
      --initial q1 --out "$workdir/product.dot"
head -4 "$workdir/system.dot" "$workdir/product.dot"

echo "== done"
