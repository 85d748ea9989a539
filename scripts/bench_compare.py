#!/usr/bin/env python3
"""Exact comparison of a deterministic bench output with its baseline.

    bench_compare.py BASELINE CURRENT

Virtual time is bit-deterministic per seed, so a BENCH_<figure>.json export
(bench/baselines/) or the benchmark fingerprint file
(bench/baselines/benchmark_fingerprints.json, written by
scripts/bench_fingerprints.py) either matches its checked-in baseline byte
for byte or the behaviour changed. The check passes only when the two files
are identical. Otherwise both documents are flattened to key paths and
every key whose value differs is printed as baseline -> current with its
relative change, so a failing exact test names what moved.

An intended change re-records the baseline: copy CURRENT over BASELINE in
the same commit and say why. Host wall-clock numbers are not compared here;
their one gate is `benchmark/run.py compare`.

Exit codes: 0 identical, 1 different, 2 a file is missing or not JSON.
"""

import json
import sys


def read(path):
    try:
        with open(path, "rb") as f:
            raw = f.read()
        return raw, json.loads(raw)
    except (OSError, ValueError) as err:
        print(f"bench_compare: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def flatten(node, path, out):
    """Map every leaf of a JSON document to its dotted key path."""
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            flatten(value, f"{path}[{i}]", out)
    else:
        out[path] = node
    return out


ABSENT = object()


def show(value):
    return "(absent)" if value is ABSENT else json.dumps(value)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def describe(base, cur):
    text = f"{show(base)} -> {show(cur)}"
    if is_number(base) and is_number(cur) and base != 0:
        text += f" ({(cur - base) / abs(base) * 100:+.3g}%)"
    return text


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_path, cur_path = argv[1], argv[2]
    base_raw, base_doc = read(base_path)
    cur_raw, cur_doc = read(cur_path)
    if base_raw == cur_raw:
        return 0

    base = flatten(base_doc, "", {})
    cur = flatten(cur_doc, "", {})
    keys = list(base) + [k for k in cur if k not in base]
    pairs = [(k, base.get(k, ABSENT), cur.get(k, ABSENT)) for k in keys]
    # Compared with their types, so that 1 -> true or 1 -> 1.0 is a move.
    moved = [(k, b, c) for k, b, c in pairs if (type(b), b) != (type(c), c)]

    print(f"bench_compare: {cur_path} differs from {base_path}")
    if moved:
        print(f"{len(moved)} of {len(keys)} key(s) moved, "
              "baseline -> current:")
        for k, b, c in moved:
            print(f"  {k}: {describe(b, c)}")
    else:
        print("every key holds the same value: the formatting or the key "
              "order changed")
    print("if the change is intended, copy the current file over the "
          "baseline and say why in the commit")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
