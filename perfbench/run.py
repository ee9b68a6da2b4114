#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload browse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke      # self-test: every workload, tiny sizes

The benchmark is compiled from the checkout's own sources (src/ plus this
directory) into .bench_build/ (or $CARGO_TARGET_DIR) before every run; an
up-to-date build is a no-op. A run is several processes: one `serve` part
drives the flora server, and several `oo7` parts run OO7 rounds, each in a
fresh process so that each gets its own address-space layout. The last
line of standard output is their merged result object {"correct",
"attempted", "failed", "metrics"}, with the metrics BENCHMARK.json lists
under "end_to_end" (--trace 0) or "per_layer" (--trace 1). Everything the
run writes stays under the build directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
WORKLOADS = ("browse", "revise", "oo7")
# OO7 rounds per second of a part's share of --seconds, and how many
# processes share them. The process count is what steadies the OO7
# numbers: the layout a process draws can make the same rounds a third
# faster or slower, and the mean over processes averages that out.
OO7_ROUNDS_PER_S = 9
OO7_SHARE = {"oo7": 0.35, "browse": 0.15, "revise": 0.15}
OO7_PROCESSES = {"oo7": 7, "browse": 5, "revise": 5}


def parts_of(workload, seconds, smoke):
    """The processes of one run, as (part, extra arguments); the
    workload's own part first."""
    procs = 2 if smoke else OO7_PROCESSES[workload]
    rounds = max(3, int(seconds * OO7_SHARE[workload] * OO7_ROUNDS_PER_S /
                        procs))
    oo7 = [("oo7", ["--rounds", str(rounds)])] * procs
    serve = [("serve", [])]
    return oo7 + serve if workload == "oo7" else serve + oo7


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_root(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, target)


def build(root):
    """Configures and builds the benchmark binary; returns its path."""
    out = os.path.join(build_root(root), "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd + generator, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(out, "perfbench")


def source_digest(root):
    """The commit when the checkout is a git tree, else a digest of the
    sources the benchmark builds from."""
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_part(root, binary, workload, part, extra, seed, seconds, trace, smoke,
             digest, timeout):
    """Runs one part of a workload; returns (exit code, stdout lines)."""
    work = build_root(root)
    cmd = [binary, "--workload", workload, "--part", part, *extra,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(work, "work"),
           "--out", os.path.join(work, "out"), "--source", digest]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        log(f"{workload} {part} part ran past the run's {RUN_TIMEOUT_S} s "
            "and was killed")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def run_once(root, binary, workload, seed, seconds, trace, smoke, digest):
    """Runs every part of one workload; returns (exit code, stdout lines),
    the last line the merged result. A metric several processes report
    (the oo7 parts') is their mean."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    lines, results = [], []
    for part, extra in parts_of(workload, seconds, smoke):
        code, out = run_part(root, binary, workload, part, extra, seed,
                             seconds, trace, smoke, digest,
                             deadline - time.monotonic())
        result = result_of(out)
        lines += out[:-1] if result is not None else out
        if code != 0 or result is None:
            return code or 1, lines
        results.append(result)
    reported = {}
    for result in results:
        for name, metric in result["metrics"].items():
            reported.setdefault(name, []).append(metric)
    metrics = {name: {"value": sum(m["value"] for m in ms) / len(ms),
                      "unit": ms[0]["unit"]}
               for name, ms in reported.items()}
    merged = {"correct": all(r["correct"] for r in results),
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "metrics": metrics}
    return 0, lines + [json.dumps(merged)]


def load_spec(root):
    """The metric names BENCHMARK.json lists, per mode."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {trace: [m["name"] for m in spec[key]]
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def select(lines, names):
    """Keeps `names` in the result line; None when one was not measured."""
    result = result_of(lines)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log(f"not measured: {', '.join(missing)}")
        return None
    result["metrics"] = {n: result["metrics"][n] for n in names}
    return lines[:-1] + [json.dumps(result)]


def smoke(root, binary, digest, spec):
    """Self-test: every workload at tiny sizes, both modes, every check."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_once(root, binary, workload, 1, 2, trace, True,
                                   digest)
            if code == 0:
                lines = select(lines, spec[trace]) or []
            result = result_of(lines)
            problems = []
            if code != 0 or result is None:
                problems.append(f"exit {code}, no result line")
            elif not result["correct"] or result["failed"] != 0:
                problems.append("checks failed: " + "; ".join(
                    l for l in lines if l.startswith("failure ")))
            status = "ok" if not problems else "FAIL " + " | ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}", flush=True)
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test every workload at tiny sizes")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    try:
        spec = load_spec(root)
        binary = build(root)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 1
    digest = source_digest(root)
    if args.smoke:
        return smoke(root, binary, digest, spec)

    code, lines = run_once(root, binary, args.workload, args.seed,
                           args.seconds, args.trace, False, digest)
    selected = select(lines, spec[args.trace]) if code == 0 else None
    if selected is None:
        for line in lines:
            if result_of([line]) is None:
                print(line)
        log(f"benchmark exited with {code} and no complete result")
        return code or 1
    for line in selected:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
