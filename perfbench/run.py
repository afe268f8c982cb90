#!/usr/bin/env python3
"""Builds and runs the aod benchmark; collects and compares results.

Run one workload (the form the benchmark contract fixes):

    python3 perfbench/run.py --workload flight-deep --seed 1 --seconds 15 --trace 0

prints a provenance line, a detail line (per-metric sample count, median
and quartiles, output digests, checks) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.

Collect several seeds into one result file, then compare two such files:

    python3 perfbench/run.py --collect before.json --seeds 1-10
    python3 perfbench/run.py --compare before.json after.json

Self-tests of the harness (Python and Rust):

    python3 perfbench/run.py --selftest
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run exits within 180 s; the first run in a checkout also builds.
RUN_TIMEOUT_S = 170


def target_dir():
    # cargo resolves a relative CARGO_TARGET_DIR against its working
    # directory, which is ROOT here.
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))


def binary():
    return os.path.join(target_dir(), "release", "perfbench")


def data_dir():
    return os.path.join(target_dir(), "perfbench-data")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the harness; cargo's output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so results from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]
    skip = {"target", "__pycache__"}
    for top in tops:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in skip)
                files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def provenance():
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "cores": len(usable) if usable else os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "git_revision": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "machine": platform.machine(),
    }


def check_result(line, spec, trace):
    """The result line must carry exactly the declared metrics."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys: %s" % sorted(result))
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        raise ValueError("metrics differ from BENCHMARK.json %s: %s" % (kind, got))
    return result


def run_one(workload, seed, seconds, trace, spec):
    """Runs the built harness once; returns (detail, result) or raises."""
    cmd = [binary(), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--data", data_dir()]
    # Its own session, so that a timeout also stops the server process the
    # harness starts for serve-mix.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError("harness exited with %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError("harness printed no result")
    detail = json.loads(lines[-2])["detail"]
    return detail, check_result(lines[-1], spec, trace)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def collect(out_path, workloads, seeds, seconds, trace, spec):
    record = {"provenance": provenance(), "seconds": seconds, "trace": trace,
              "bounds": {m["name"]: m.get("bound") for m in spec["end_to_end"]},
              "runs": []}
    ok = True
    for w in workloads:
        for seed in seeds:
            detail, result = run_one(w, seed, seconds, trace, spec)
            ok &= result["correct"]
            record["runs"].append({"workload": w, "seed": seed, "trace": trace,
                                   "detail": detail, "result": result})
            print("%-16s seed %-5d %s" % (w, seed, json.dumps(result)), file=sys.stderr)
    record["summary"] = {}
    for w in workloads:
        runs = [r["result"] for r in record["runs"] if r["workload"] == w]
        record["summary"][w] = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
    with open(out_path, "w") as f:
        json.dump(record, f, indent=1)
    for w, metrics in record["summary"].items():
        for name, s in metrics.items():
            print("%-16s %-26s median %-12.6g spread %.4f (n=%d)"
                  % (w, name, s["median"], s["spread"], s["n"]))
    return ok


def verdict(parent, change, better, bound):
    """One (workload, metric) verdict by the pair rule.

    `parent` and `change` are equally long lists of run values paired by
    seed. Better: the change wins at least 9/10 of the pairs (ties count
    for neither side) and the medians differ by more than the parent's
    interquartile distance. Where either side's spread (IQR / median)
    exceeds the bound the metric is unresolved, unless every change run
    beats every parent run. Worse: the change's median is worse than the
    parent's by more than the bound. Otherwise unchanged.
    """
    sign = 1.0 if better == "lower" else -1.0
    gain = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(1 for g in gain if g > 0)
    pa, ch = summarize(parent), summarize(change)
    diff = sign * (pa["median"] - ch["median"])
    if wins >= 0.9 * len(gain) and diff > pa["q3"] - pa["q1"]:
        return "better"
    if max(pa["spread"], ch["spread"]) > bound:
        if all(sign * (p - c) > 0 for p in parent for c in change):
            return "better"
        return "unresolved"
    if -diff > bound * abs(pa["median"]):
        return "worse"
    return "unchanged"


def pair_values(a_runs, b_runs, workload, name):
    a = {r["seed"]: r["result"]["metrics"][name]["value"] for r in a_runs if r["workload"] == workload}
    b = {r["seed"]: r["result"]["metrics"][name]["value"] for r in b_runs if r["workload"] == workload}
    common = sorted(set(a) & set(b))
    if common:
        return [a[s] for s in common], [b[s] for s in common]
    n = min(len(a), len(b))
    return list(a.values())[:n], list(b.values())[:n]


def compare(a_path, b_path, spec):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    ca, cb = a["provenance"]["cores"], b["provenance"]["cores"]
    if ca != cb:
        print("refusing to compare: %s has %s cores, %s has %s" % (a_path, ca, b_path, cb))
        return 2
    rows = []
    workloads = [w for w in a["summary"] if w in b["summary"]]
    for w in workloads:
        for m in spec["end_to_end"]:
            parent, change = pair_values(a["runs"], b["runs"], w, m["name"])
            if not parent:
                continue
            v = verdict(parent, change, m["better"], m["bound"])
            rows.append({"workload": w, "metric": m["name"], "verdict": v,
                         "parent_median": statistics.median(parent),
                         "change_median": statistics.median(change), "pairs": len(parent)})
            print("%-16s %-12s %-10s parent %-12.6g change %-12.6g pairs %d"
                  % (w, m["name"], v, rows[-1]["parent_median"], rows[-1]["change_median"],
                     len(parent)))
    print(json.dumps({"verdicts": rows}))
    return 0


def selftest():
    py = subprocess.run([sys.executable, os.path.join(HERE, "test_run.py")], cwd=ROOT)
    rs = subprocess.run(["cargo", "test", "--release", "--offline", "--manifest-path", MANIFEST],
                        cwd=ROOT)
    return 0 if py.returncode == 0 and rs.returncode == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--collect", metavar="OUT")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.selftest:
        return selftest()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    seconds = args.seconds or spec["run_seconds"]
    if args.collect:
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
        ok = collect(args.collect, names, parse_seeds(args.seeds), seconds, args.trace, spec)
        return 0 if ok else 1
    if not args.workload:
        ap.error("--workload is required")
    try:
        detail, result = run_one(args.workload, args.seed, seconds, args.trace, spec)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    prov = provenance()
    prov.update({"workload": args.workload, "seed": args.seed, "seconds": seconds,
                 "trace": args.trace})
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
