#!/usr/bin/env python3
"""Assert the exact-prover and pre-solve benchmarks stay under pinned
allocation ceilings.

Reads a BENCH_eval.json produced (or section-merged) by
scripts/bench.sh and fails if any BenchmarkCP_*, BenchmarkAStar_* or
BenchmarkPresolve_* entry reports more allocs/op than its ceiling. The ceilings are set ~4-10x above the
measured post-rewrite values (tens to hundreds of allocations per
complete proof — fixed per-solve setup, nothing per node), and 4-6
orders of magnitude below the pre-rewrite state (28M allocs for the
n=20 proof), so any per-node allocation sneaking back into the
branch-and-bound loop fails CI long before it shows up in a baseline
diff. Complements the testing.AllocsPerRun pins in
internal/solver/cp/alloc_test.go, which gate the same invariant at
unit-test granularity.

The A* proof allocates only when its state arena, open list or subset
table doubles (67 allocs/op measured for 460k pushed states), so its
ceiling sits a few times above the doubling count and five orders of
magnitude below the per-node allocations of a pointer-heap search
(~925k allocs for the same proof).

The pre-solve ceilings (run `--section presolve` as well) hold the
closed-form tail kernel and the single-pass codec where they are: a
tail pass that allocated per tail set or per permutation again (the
Walker-replay analysis did ~56k allocs per TPC-H n=31 Analyze), or a
second canonicalization on the hash path (~28k allocs on TPC-DS),
fails the gate.

Usage: scripts/check_alloc_ceilings.py [BENCH_eval.json]
"""
import json
import sys

# allocs/op ceilings per benchmark.
CEILINGS = {
    "BenchmarkCP_ProofN20Low": 500,
    "BenchmarkCP_TPCH31Nodes": 500,
    "BenchmarkAStar_ProofN20Full": 300,
    # measured: 822 / 1186 / 15129 allocs/op
    "BenchmarkPresolve_AnalyzeTPCH31": 3000,
    "BenchmarkPresolve_TailBoundTPCDS": 4000,
    "BenchmarkPresolve_CanonHashTPCDS": 25000,
}


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_eval.json"
    with open(path) as f:
        doc = json.load(f)

    by_name = {b["name"]: b for b in doc.get("benchmarks", [])}
    failures = []
    missing = []
    for name, ceiling in CEILINGS.items():
        entry = by_name.get(name)
        if entry is None or "allocs_per_op" not in entry:
            missing.append(name)
            continue
        allocs = entry["allocs_per_op"]
        status = "ok" if allocs <= ceiling else "FAIL"
        print(f"{status:4} {name}: {allocs:g} allocs/op (ceiling {ceiling})")
        if allocs > ceiling:
            failures.append(name)

    if missing:
        print(f"error: benchmarks missing from {path}: {', '.join(missing)}", file=sys.stderr)
        return 2
    if failures:
        print(
            "error: allocation ceilings exceeded — a per-node allocation is "
            "back in an exact prover's hot loop (see "
            "internal/solver/cp/alloc_test.go), or a per-set allocation / "
            "second canonicalization is back on the pre-solve path",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
