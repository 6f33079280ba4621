#!/usr/bin/env python3
"""Gate a bench run against a committed baseline.

Compares two BENCH_*.json files (as written by bench/scaling.cpp,
bench/kernels.cpp, bench/vcycle.cpp) and fails when a named key regresses by
more than the allowed percentage, or when a required boolean is false.

Usage:
  bench_gate.py BASELINE CANDIDATE [--key NAME:DIR:PCT]... [--require-true NAME]...
  bench_gate.py --update-baselines BENCH_OUT_DIR
  bench_gate.py --self-test

`--update-baselines DIR` regenerates the committed baselines: every
BENCH_*.json in DIR (e.g. build/bench-out/ after a check.sh run) is
validated as JSON and copied over the file of the same name in the repo
root.  Run the benches on a quiet machine first, then commit the diff.

Key specs are NAME:DIR:PCT where DIR is `higher` (bigger is better; fail
when candidate < baseline * (1 - PCT/100)) or `lower` (smaller is better;
fail when candidate > baseline * (1 + PCT/100)).  Keys missing from either
file fail the gate — a renamed metric must not silently pass.

Exit codes: 0 gate passed, 1 regression detected, 2 usage or I/O error.
"""

import argparse
import glob
import json
import os
import shutil
import sys


def parse_key_spec(spec):
    parts = spec.split(":")
    if len(parts) != 3 or parts[1] not in ("higher", "lower"):
        raise ValueError(f"bad key spec '{spec}' (want NAME:higher|lower:PCT)")
    try:
        pct = float(parts[2])
    except ValueError:
        raise ValueError(f"bad key spec '{spec}': PCT must be a number")
    if pct < 0:
        raise ValueError(f"bad key spec '{spec}': PCT must be >= 0")
    return parts[0], parts[1], pct


def check_key(baseline, candidate, name, direction, pct):
    """Returns (passed, message) for one NAME:DIR:PCT spec."""
    for label, doc in (("baseline", baseline), ("candidate", candidate)):
        if name not in doc:
            return False, f"{name}: missing from {label}"
        if not isinstance(doc[name], (int, float)) or isinstance(doc[name], bool):
            return False, f"{name}: not a number in {label}"
    base, cand = float(baseline[name]), float(candidate[name])
    if base == 0.0:
        # A zero baseline carries no information to regress against (it is
        # usually a degenerate recording).  Pass with a note so the next
        # --update-baselines records a real value to gate on.
        return True, f"{name}: baseline is 0 (no reference), candidate {cand:g}"
    change_pct = (cand - base) / abs(base) * 100.0
    if direction == "higher":
        passed = cand >= base * (1.0 - pct / 100.0)
    else:
        passed = cand <= base * (1.0 + pct / 100.0)
    return passed, (
        f"{name}: {base:g} -> {cand:g} ({change_pct:+.1f}%, "
        f"{direction} is better, allow {pct:g}%)"
    )


def check_require_true(candidate, name):
    if name not in candidate:
        return False, f"{name}: missing from candidate"
    if candidate[name] is not True:
        return False, f"{name}: expected true, got {candidate[name]!r}"
    return True, f"{name}: true"


def run_gate(baseline, candidate, key_specs, require_true):
    failures = 0
    for name, direction, pct in key_specs:
        passed, message = check_key(baseline, candidate, name, direction, pct)
        print(("PASS  " if passed else "FAIL  ") + message)
        failures += 0 if passed else 1
    for name in require_true:
        passed, message = check_require_true(candidate, name)
        print(("PASS  " if passed else "FAIL  ") + message)
        failures += 0 if passed else 1
    return failures


def update_baselines(bench_out_dir, repo_root):
    """Copy every valid BENCH_*.json from a bench-out run over the committed
    baseline of the same name.  Returns the number of problems found."""
    fresh = sorted(glob.glob(os.path.join(bench_out_dir, "BENCH_*.json")))
    if not fresh:
        print(f"error: no BENCH_*.json in {bench_out_dir}", file=sys.stderr)
        return 1
    problems = 0
    for path in fresh:
        name = os.path.basename(path)
        try:
            with open(path) as f:
                json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"SKIP  {name}: not valid JSON ({e})")
            problems += 1
            continue
        dest = os.path.join(repo_root, name)
        verb = "updated" if os.path.exists(dest) else "created"
        shutil.copyfile(path, dest)
        print(f"OK    {name}: {verb} {dest}")
    return problems


def self_test():
    """Exercise the gate logic on synthetic documents; exits nonzero on bug."""
    base = {"speedup": 5.0, "total_ms": 100.0, "zero": 0.0, "ok": True}

    def gate(cand, keys=(), req=()):
        return run_gate(base, cand, [parse_key_spec(k) for k in keys], req)

    cases = [
        # (candidate, keys, require_true, expected failure count)
        ({"speedup": 5.0}, ["speedup:higher:10"], [], 0),
        ({"speedup": 4.6}, ["speedup:higher:10"], [], 0),   # -8% within 10%
        ({"speedup": 4.0}, ["speedup:higher:10"], [], 1),   # -20% beyond 10%
        ({"speedup": 9.0}, ["speedup:higher:10"], [], 0),   # improvement
        ({"total_ms": 105.0}, ["total_ms:lower:10"], [], 0),
        ({"total_ms": 120.0}, ["total_ms:lower:10"], [], 1),
        ({"total_ms": 50.0}, ["total_ms:lower:10"], [], 0),  # improvement
        ({}, ["speedup:higher:10"], [], 1),                  # missing key
        ({"speedup": "fast"}, ["speedup:higher:10"], [], 1), # wrong type
        ({"zero": 0.0}, ["zero:lower:10"], [], 0),
        ({"zero": 1.0}, ["zero:lower:10"], [], 0),  # zero baseline: no reference
        ({"zero": 1.0}, ["zero:higher:10"], [], 0),
        ({"ok": True}, [], ["ok"], 0),
        ({"ok": False}, [], ["ok"], 1),
        ({}, [], ["ok"], 1),
    ]
    bugs = 0
    # update_baselines: one good file copied, one broken file skipped,
    # an empty directory reported as an error.
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "bench-out")
        root = os.path.join(tmp, "root")
        os.makedirs(out_dir)
        os.makedirs(root)
        if update_baselines(out_dir, root) == 0:
            print("SELF-TEST BUG: empty bench-out dir accepted")
            bugs += 1
        with open(os.path.join(out_dir, "BENCH_good.json"), "w") as f:
            json.dump({"speedup": 5.0}, f)
        with open(os.path.join(out_dir, "BENCH_broken.json"), "w") as f:
            f.write("{not json")
        if update_baselines(out_dir, root) != 1:
            print("SELF-TEST BUG: expected exactly 1 skipped baseline")
            bugs += 1
        if not os.path.exists(os.path.join(root, "BENCH_good.json")):
            print("SELF-TEST BUG: valid baseline was not copied")
            bugs += 1
        if os.path.exists(os.path.join(root, "BENCH_broken.json")):
            print("SELF-TEST BUG: invalid baseline was copied")
            bugs += 1
    for candidate, keys, req, expected in cases:
        got = gate(candidate, keys, req)
        if got != expected:
            print(f"SELF-TEST BUG: {candidate} {keys} {req}: "
                  f"expected {expected} failures, got {got}")
            bugs += 1
    for bad in ("name", "name:upward:5", "name:higher:x", "name:higher:-1"):
        try:
            parse_key_spec(bad)
            print(f"SELF-TEST BUG: spec '{bad}' accepted")
            bugs += 1
        except ValueError:
            pass
    print(f"self-test: {'ok' if bugs == 0 else f'{bugs} bug(s)'}")
    return 0 if bugs == 0 else 1


def main():
    parser = argparse.ArgumentParser(
        description="Fail when a bench JSON regresses against its baseline.")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("candidate", nargs="?")
    parser.add_argument("--key", action="append", default=[],
                        metavar="NAME:higher|lower:PCT")
    parser.add_argument("--require-true", action="append", default=[],
                        metavar="NAME")
    parser.add_argument("--update-baselines", metavar="BENCH_OUT_DIR")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())
    if args.update_baselines:
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        sys.exit(1 if update_baselines(args.update_baselines, repo_root) else 0)
    if not args.baseline or not args.candidate:
        parser.error("baseline and candidate files are required")
    if not args.key and not args.require_true:
        parser.error("nothing to check: pass --key and/or --require-true")

    try:
        key_specs = [parse_key_spec(spec) for spec in args.key]
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
    docs = []
    for path in (args.baseline, args.candidate):
        try:
            with open(path) as f:
                docs.append(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            sys.exit(2)

    print(f"bench gate: {args.candidate} vs baseline {args.baseline}")
    failures = run_gate(docs[0], docs[1], key_specs, args.require_true)
    if failures:
        print(f"bench gate FAILED: {failures} check(s) regressed")
        sys.exit(1)
    print("bench gate passed")


if __name__ == "__main__":
    main()
