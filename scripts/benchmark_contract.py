#!/usr/bin/env python3
"""Check that the benchmark program reports every metric BENCHMARK.json names.

    benchmark_contract.py RESULTDIR

Reads RESULTDIR/W.1.json, the traced seed-1 `--smoke` result that
scripts/bench_fingerprints.py writes for every workload W of
BENCHMARK.json, with a strict JSON reader (NaN and Infinity are rejected).
A result fails the contract, naming the metric, when:

  * it is missing or was not a traced run;
  * an `end_to_end` name is missing from `metrics` (in --smoke a p999 may
    be null; only the key must be there);
  * a `per_layer` name is absent, null or non-finite in `layers`. The
    `host.*` shares and `trace.overhead_ratio` are exempt: benchmark/run.py
    derives them from the profile, not from the result.

benchmark/run.py drops a metric it cannot find from its result line, so a
metric the program stops reporting would otherwise go unnoticed.

Exit codes: 0 every workload keeps the contract, 1 a result is missing or
breaks it, 2 usage error.
"""

import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def derived_by_run_py(name):
    return name.startswith("host.") or name == "trace.overhead_ratio"


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def violations(result, bench):
    out = []
    for metric in bench["end_to_end"]:
        if metric["name"] not in result.get("metrics", {}):
            out.append(f"end_to_end metric {metric['name']} is missing")
    layers = result.get("layers", {})
    for metric in bench["per_layer"]:
        name = metric["name"]
        if derived_by_run_py(name):
            continue
        entry = layers.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if entry is None:
            out.append(f"per_layer metric {name} is absent")
        elif value is None:
            out.append(f"per_layer metric {name} is null")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            out.append(f"per_layer metric {name} is not a finite number")
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    resultdir = pathlib.Path(argv[1])
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)

    failed = False
    for workload in [w["name"] for w in bench["workloads"]]:
        result_file = resultdir / f"{workload}.1.json"
        try:
            with open(result_file, encoding="utf-8") as f:
                result = json.load(f, parse_constant=reject_constant)
        except (OSError, ValueError) as e:
            print(f"benchmark_contract: {workload}: {e}", file=sys.stderr)
            failed = True
            continue
        problems = violations(result, bench)
        if result.get("traced") is not True:
            problems.insert(0, f"{result_file} is not a traced run")
        for problem in problems:
            print(f"benchmark_contract: {workload}: {problem}",
                  file=sys.stderr)
            failed = True
    if not failed:
        print("benchmark_contract: every workload reports every metric")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
