#!/bin/sh
# Full CI pipeline: build everything, run the unit/property suites and the
# bench goldens (test/bench), then the end-to-end aliases (telemetry
# artifacts, networked sessions, the parallel-vs-sequential exploration
# differential).  The aliases are --force'd so the e2e paths re-run even
# on a warm _build.
set -eux

cd "$(dirname "$0")/.."

dune build
dune runtest
dune build @check-obs @check-net @check-par --force

# Distributed tracing end to end: merged multi-process Chrome traces from
# the loopback, socket and parallel-exploration paths, validated by
# check_trace (causal structure must close).
dune build @check-span --force

# Static analysis: the tree must lint clean across all three tiers —
# syntactic, typed poly-compare, and the whole-program domain-safety race
# check — and the linter itself must keep finding the seeded fixture
# violations (including the deliberately-racy Tier C tree in
# test/lintfix, pinned by kind and line through check_lint --tierc).
dune build @lint @check-lint --force

# Profiling is opt-in: the same run with and without --profile/WB_PROF=1,
# validated on disk (no prof.* series when off, all four when on, every
# OpenMetrics exposition grammatically valid).
dune build @check-prof --force

# The cost certificates: the full-registry sweep at n in {16, 64, 256,
# 1024} (measured <= envelope, >= Lemma 3 floor where declared) and the
# same-seed byte-determinism of the cost table.
dune build @check-cost --force

# The benchmark's own output checks, beyond the selftest's warm-up ops at
# seeds 1 and 2: a short traced run of each workload at seed 3 must report
# "correct": true and no failed op.
for w in run verify session; do
  python3 perfbench/run.py --workload "$w" --seed 3 --seconds 1 --trace 1 \
    | tail -n 1 \
    | python3 -c 'import json, sys
d = json.load(sys.stdin)
if d["correct"] is not True or d["failed"] != 0:
    sys.exit("perfbench %s: correct=%s failed=%s" % (sys.argv[1], d["correct"], d["failed"]))' "$w"
done

# Seeded mutants: every patch under test/mutants/ must make the suite it
# names fail on a copy of the tree, and that suite must pass unpatched —
# proof that the spec oracle for Engine.verify and the wire suites can fail.
sh scripts/mutants.sh

# The chaos referee: deterministic fault-injection campaigns — a pinned
# same-seed report diff, a campaign from the committed plan fixture, and
# a 100+-run seed sweep across all four model classes with the
# crash-replay differential enforced on every run.
dune build @check-chaos --force
