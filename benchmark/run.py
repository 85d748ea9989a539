#!/usr/bin/env python3
"""Build and run the repository benchmark, and compare two sets of results.

  python3 benchmark/run.py                  every workload, plain run, printed
  python3 benchmark/run.py --traced         ... and the traced run per workload
  python3 benchmark/run.py --smoke          every workload, shrunk (~20 s)
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                            one run; the last stdout line is
                                            the JSON result
  python3 benchmark/run.py record OUT.jsonl [--repeats N] [--first-seed K]
                                            append full results, one per line
  python3 benchmark/run.py compare A.jsonl B.jsonl
                                            apply the bounds of BENCHMARK.json

The benchmark builds itself into build/benchmark/ (CMake, RelWithDebInfo)
and runs one workload per efac_bench process, one process at a time.
README.md describes the workloads, metrics, bounds and the traced run.
"""

import argparse
import bisect
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build" / "benchmark"
RESULTS = BUILD / "results"
RUN_TIMEOUT_S = 170

# Buckets of the traced run's host profile: the src/ modules by namespace,
# plus the benchmark's own code, the C/C++ runtime, the allocator, and the
# rest.
HOST_MODULES = ["sim", "rdma", "rpc", "nvm", "checksum", "kv", "stores",
                "metrics", "trace", "workload", "common", "bench", "libc",
                "alloc", "other"]
SRC_MODULES = {"sim", "rdma", "rpc", "nvm", "checksum", "kv", "stores",
               "metrics", "trace", "workload"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ----------------------------------------------------------------- building

def build():
    """Configure (once) and build efac_bench; exit 1 if either fails."""
    if shutil.which("cmake") is None:
        log("run.py: cmake not found")
        sys.exit(1)
    steps = []
    # Configure unless an earlier configure completed (a failed one leaves
    # a cache but no build system).
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "efac_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"run.py: build failed: {' '.join(cmd)}")
            sys.exit(1)
    return BUILD / "efac_bench"


def git_commit():
    if not (ROOT / ".git").exists():  # never search above the checkout
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ------------------------------------------------------------------ running

def run_one(binary, workload, seed, seconds, traced=False, smoke=False):
    """Run one workload in its own process; return its result dict."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}.{seed}.{'traced' if traced else 'plain'}"
    out = RESULTS / f"{tag}.json"
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--out={out}"]
    if traced:
        cmd += ["--traced", f"--profile-out={RESULTS / (tag + '.prof')}"]
    if smoke:
        cmd.append("--smoke")
    if out.exists():
        out.unlink()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        sys.exit(1)
    # Exit 1 means "ran, and the oracle found violations": the result is
    # still written and reports them.
    if proc.returncode not in (0, 1) or not out.exists():
        log(f"run.py: efac_bench failed on {workload} "
            f"(exit {proc.returncode})")
        sys.exit(1)
    with open(out) as f:
        result = json.load(f)
    result["fingerprint"]["git_commit"] = git_commit()
    if traced:
        result["profile_file"] = str(RESULTS / (tag + ".prof"))
    return result


def vt_mismatches(plain, traced):
    """vt_* metrics and the op-completion hash must not move when tracing
    is on. (The simulator's dispatch hash does move: the telemetry sampler
    adds its own periodic events to the schedule.)"""
    bad = [name for name, m in plain["metrics"].items()
           if name.startswith("vt_")
           and m["value"] != traced["metrics"].get(name, {}).get("value")]
    if plain["fingerprint"]["op_hash"] != traced["fingerprint"]["op_hash"]:
        bad.append("op_hash")
    return bad


def traced_layers(binary, plain, traced):
    """Per-layer metrics of a traced run: the driver's layer report plus
    host-time shares from the sampled profile and the tracing overhead."""
    layers = dict(traced["layers"])
    shares, total = host_shares(binary, Path(traced["profile_file"]))
    ns_per_op = traced["layers"]["bench.host_ns_per_op"]["value"]
    for module in HOST_MODULES:
        share = shares.get(module, 0) / total if total else 0.0
        layers[f"host.{module}.share"] = {"value": share, "unit": "ratio"}
        layers[f"host.{module}.ns_per_op"] = {"value": share * ns_per_op,
                                              "unit": "ns"}
    overhead = (plain["metrics"]["host_kops"]["value"]
                / traced["metrics"]["host_kops"]["value"])
    layers["trace.overhead_ratio"] = {
        "value": overhead, "unit": "ratio",
        "note": "plain host_kops / traced host_kops"}
    return layers


# ------------------------------------------------------------- symbolising

def nm_symbols(binary):
    proc = subprocess.run(["nm", "-C", "-n", "--defined-only", str(binary)],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=True)
    addrs, names = [], []
    for line in proc.stdout.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(parts[2])
    return addrs, names


_OPERATORS = [("operator()", "operator_call"), ("operator<<", "operator_shl"),
              ("operator>>", "operator_shr"), ("operator<=>", "operator_cmp"),
              ("operator<=", "operator_le"), ("operator>=", "operator_ge"),
              ("operator->", "operator_arrow"), ("operator<", "operator_lt"),
              ("operator>", "operator_gt")]


def qualified_name(demangled):
    """'efac::sim::Task<X> efac::stores::C::f(Y) [clone .actor]' ->
    'efac::stores::C::f': drop clones, template arguments, parameters and
    the return type."""
    name = demangled.split(" [clone")[0]
    for op, repl in _OPERATORS:
        name = name.replace(op, repl)
    out, depth = [], 0
    for ch in name:
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    tokens = [t for t in "".join(out).split()
              if t not in ("const", "volatile", "&", "&&", "noexcept")]
    return tokens[-1] if tokens else ""


def module_of(demangled):
    name = qualified_name(demangled)
    parts = name.split("::")
    if parts[0] == "efac_bench" or name == "main":
        return "bench"
    if name in ("_init", "_start") or name.startswith("__libc_"):
        return "libc"  # PLT stubs sit under _init; process start-up
    if parts[0] == "efac":
        if len(parts) > 2 and parts[1] in SRC_MODULES:
            return parts[1]
        if len(parts) > 2 and parts[1] in ("fault", "analysis"):
            return "other"
        return "common"
    if re.search(r"operator new|operator delete|malloc|free", demangled):
        return "alloc"
    if parts[0] in ("std", "__gnu_cxx", "__cxxabiv1"):
        return "libc"
    return "other"


_ALLOC = re.compile(r"malloc|free|calloc|realloc|memalign|_int_|tcache|"
                    r"_Znw|_Zna|_Zdl|_Zda")


def dso_module(file, symbol):
    if _ALLOC.search(symbol):
        return "alloc"
    if file.startswith(("libc.so", "libstdc++", "libm.so", "libgcc",
                        "ld-linux")):
        return "libc"
    return "other"


def host_shares(binary, profile):
    """Bucket sampled program counters by module. Returns (counts, total)."""
    addrs, names = nm_symbols(binary)
    with open(binary, "rb") as f:
        elf_type = int.from_bytes(f.read(18)[16:18], "little")
    counts, total, base = {}, 0, 0
    with open(profile) as f:
        for line in f:
            if line.startswith("#"):
                m = re.search(r"base 0x([0-9a-f]+)", line)
                # A non-PIE executable's symbols are absolute addresses.
                base = int(m.group(1), 16) if m and elf_type == 2 else 0
                continue
            parts = line.split()
            n = int(parts[-1])
            if parts[0] == "exe":
                pc = int(parts[1], 16) + base
                i = bisect.bisect_right(addrs, pc) - 1
                module = module_of(names[i]) if i >= 0 else "other"
            else:
                module = dso_module(parts[1], parts[2])
            counts[module] = counts.get(module, 0) + n
            total += n
    return counts, total


# --------------------------------------------------------------- reporting

def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_metrics(title, metrics):
    print(title)
    for name in sorted(metrics):
        m = metrics[name]
        extra = []
        if m.get("samples") is not None:
            extra.append(f"n={m['samples']}")
        if m.get("note"):
            extra.append(m["note"])
        tail = f"  ({'; '.join(extra)})" if extra else ""
        print(f"  {name:34s} {fmt(m['value']):>14s} {m['unit']}{tail}")


def print_result(result, layers=None):
    fp = result["fingerprint"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"correct={result['correct']}  attempted={result['attempted']}  "
          f"failed={result['failed']}  dispatch_hash={fp['dispatch_hash']}  "
          f"calibration={fp['calibration']}")
    for v in result["violations"]:
        print(f"  VIOLATION {v}")
    print_metrics("  end-to-end:", result["metrics"])
    if layers is not None:
        print_metrics("  per-layer:", layers)


def contract_json(result, names, metrics, correct):
    """The driver's result line: exactly the named metrics."""
    out = {}
    for name in names:
        m = metrics.get(name)
        if m is None or m["value"] is None:
            log(f"run.py: metric {name} missing on {result['workload']}")
            continue
        out[name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": out}


# --------------------------------------------------------------- commands

def cmd_single(args, bench):
    binary = build()
    seconds = args.seconds or bench["run_seconds"]
    plain = run_one(binary, args.workload, args.seed, seconds)
    if not args.trace:
        print_result(plain)
        names = [m["name"] for m in bench["end_to_end"]]
        print(json.dumps(contract_json(plain, names, plain["metrics"],
                                       plain["correct"])))
        return 0 if plain["correct"] else 1
    traced = run_one(binary, args.workload, args.seed, seconds, traced=True)
    bad = vt_mismatches(plain, traced)
    layers = traced_layers(binary, plain, traced)
    print_result(traced, layers)
    if bad:
        log(f"run.py: tracing moved {', '.join(bad)}")
    names = [m["name"] for m in bench["per_layer"]]
    correct = plain["correct"] and traced["correct"] and not bad
    print(json.dumps(contract_json(traced, names, layers, correct)))
    return 0 if correct else 1


def cmd_all(args, bench):
    binary = args.binary or build()
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    started = time.monotonic()
    for w in [w["name"] for w in bench["workloads"]]:
        plain = run_one(binary, w, args.seed, seconds, smoke=args.smoke)
        ok = ok and plain["correct"]
        if not args.traced:
            print_result(plain)
            continue
        traced = run_one(binary, w, args.seed, seconds, traced=True,
                         smoke=args.smoke)
        bad = vt_mismatches(plain, traced)
        print_result(plain)
        print_result(traced, traced_layers(binary, plain, traced))
        if bad:
            print(f"  TRACING MOVED {', '.join(bad)}")
            ok = False
    print(f"{'all correct' if ok else 'CORRECTNESS FAILURE'} "
          f"({time.monotonic() - started:.1f} s)")
    return 0 if ok else 1


def cmd_record(args, bench):
    binary = build()
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    with open(args.out, "a") as f:
        for seed in range(args.first_seed, args.first_seed + args.repeats):
            for w in workloads:
                result = run_one(binary, w, seed, seconds)
                ok = ok and result["correct"]
                f.write(json.dumps(result) + "\n")
                f.flush()
                log(f"recorded {w} seed {seed}")
    return 0 if ok else 1


def read_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, a, b, pairs):
    """Section 8 of the choosing-metrics guide, for one metric."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = statistics.median(b)
    spread = (a_q3 - a_q1) / a_med if a_med else 0.0
    worse = (b_med - a_med) / a_med if a_med else 0.0
    if not lower:
        worse = -worse + 0.0  # no "-0.00%" for an unchanged metric
    better_all = (max(b) < min(a)) if lower else (min(b) > max(a))
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    if spread > bound and not better_all:
        return "unresolved", spread, worse
    if worse > bound:
        return "REGRESSED", spread, worse
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and (better_all or -worse > spread)):
        return "improved", spread, worse
    return "unchanged", spread, worse


def cmd_compare(args, bench):
    a_runs, b_runs = read_runs(args.a), read_runs(args.b)
    cal = {r["fingerprint"]["calibration"] for r in a_runs + b_runs}
    if len(cal) > 1:
        print("REFUSED: calibration fingerprints differ "
              f"({', '.join(sorted(cal))}): a retuned cost model is not a gain")
        return 2
    status = 0
    for w in [w["name"] for w in bench["workloads"]]:
        a = [r for r in a_runs if r["workload"] == w]
        b = [r for r in b_runs if r["workload"] == w]
        if not a or not b:
            continue
        by_seed = {r["seed"]: r for r in a}
        pairs = [(by_seed[r["seed"]], r) for r in b if r["seed"] in by_seed]
        moved = [r["seed"] for x, r in pairs
                 if x["fingerprint"]["dispatch_hash"]
                 != r["fingerprint"]["dispatch_hash"]]
        print(f"== {w}: {len(a)} vs {len(b)} runs, {len(pairs)} pairs; "
              f"virtual schedule "
              f"{'CHANGED on seeds ' + str(moved) if moved else 'unchanged'}")
        if len(pairs) < 10:
            print("  (fewer than 10 pairs: no gain can be claimed)")
        if any(not r["correct"] or r["failed"] > 0 for r in b):
            print(f"  REGRESSED correctness on {w}: a run failed ops or "
                  "returned wrong values")
            status = max(status, 1)
        print(f"  {'metric':18s} {'A median [q1, q3]':>35s} "
              f"{'B median [q1, q3]':>35s} {'worse':>8s} {'spread':>7s} "
              f"{'bound':>6s}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            av = [r["metrics"][name]["value"] for r in a]
            bv = [r["metrics"][name]["value"] for r in b]
            if None in av or None in bv:
                print(f"  {name:18s} missing on some run")
                continue
            pv = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                  for x, y in pairs]
            v, spread, worse = verdict(metric, av, bv, pv)
            qa, qb = quartiles(av), quartiles(bv)
            print(f"  {name:18s} {qa[1]:12.6g} [{qa[0]:9.5g}, {qa[2]:9.5g}] "
                  f"{qb[1]:12.6g} [{qb[0]:9.5g}, {qb[2]:9.5g}] "
                  f"{worse:+8.2%} {spread:7.2%} {metric['bound']:6.1%}  {v}")
            if v == "REGRESSED":
                print(f"  REGRESSED {name} on {w}: median {worse:+.2%} "
                      f"worse, bound {metric['bound']:.1%}")
                status = max(status, 1)
            elif v == "unresolved" and status == 0:
                status = 3
    return status


def main():
    bench = load_benchmark()
    if len(sys.argv) > 1 and sys.argv[1] in ("record", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "record":
            p.add_argument("out")
            p.add_argument("--repeats", type=int, default=10)
            p.add_argument("--first-seed", type=int, default=1)
            p.add_argument("--seconds", type=int)
            p.add_argument("--workload", action="append")
            return cmd_record(p.parse_args(sys.argv[2:]), bench)
        p.add_argument("a")
        p.add_argument("b")
        return cmd_compare(p.parse_args(sys.argv[2:]), bench)

    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload",
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary", type=Path)
    args = p.parse_args()
    if args.workload:
        args.trace = args.trace or int(args.traced)
        return cmd_single(args, bench)
    return cmd_all(args, bench)


if __name__ == "__main__":
    sys.exit(main())
