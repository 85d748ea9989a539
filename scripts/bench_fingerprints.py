#!/usr/bin/env python3
"""Record the deterministic fingerprints of the repository benchmark.

    bench_fingerprints.py EFAC_BENCH OUT

Runs `EFAC_BENCH --workload=W --seed=N --smoke` for every workload of
BENCHMARK.json at seeds 1-3, writing each result next to OUT as
W.N.json, and writes OUT: for each run, the fields that depend only on the
seed and the binary. Those are the dispatch, op and calibration hashes,
`correct`, `attempted`, `failed` and every `vt_*` metric (a null value
stays null). The compiler, the build type and every host metric are left
out.

Seed 1 runs with `--traced` as well. The flight recorder, the telemetry
sampler and the host profiler only read, so its fingerprint must equal
the plain run's; scripts/benchmark_contract.py checks its result file.

bench/baselines/benchmark_fingerprints.json is OUT for the checked-in code;
scripts/bench_compare.py compares the two (ctest benchmark_fingerprints_exact).

Exit codes: 0 written, 1 a run failed, 2 usage error.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
TRACED_SEED = 1


def fingerprint(result):
    kept = {k: result["fingerprint"][k]
            for k in ("dispatch_hash", "op_hash", "calibration")}
    kept.update({k: result[k] for k in ("correct", "attempted", "failed")})
    kept.update({name: metric["value"]
                 for name, metric in sorted(result["metrics"].items())
                 if name.startswith("vt_")})
    return kept


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary, out = argv[1], pathlib.Path(argv[2])
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    doc = {"schema": "efac.benchmark.fingerprints.v1"}
    for workload in workloads:
        doc[workload] = {}
        for seed in SEEDS:
            result = out.parent / f"{workload}.{seed}.json"
            cmd = [binary, f"--workload={workload}", f"--seed={seed}",
                   "--smoke", f"--out={result}"]
            if seed == TRACED_SEED:
                cmd.append("--traced")
            if subprocess.run(cmd, check=False).returncode != 0:
                print(f"bench_fingerprints: {' '.join(cmd)} failed",
                      file=sys.stderr)
                return 1
            with open(result, encoding="utf-8") as f:
                doc[workload][f"seed={seed}"] = fingerprint(json.load(f))

    with open(out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
