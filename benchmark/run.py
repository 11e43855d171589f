#!/usr/bin/env python3
"""Build and run the simrun::daemon benchmark (see README.md).

  python3 benchmark/run.py                      every workload, seed 1
  python3 benchmark/run.py --workload market --seed 3 --seconds 10 --trace 0
  python3 benchmark/run.py --trace              per-layer metrics instead
  python3 benchmark/run.py --repeat 5 --out A.json
  python3 benchmark/run.py compare A.json B.json

A single --workload run prints its metrics, then as its last line one JSON
object with the keys correct, attempted, failed and metrics. Any failed
build or gate exits nonzero without that line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-benchmark"
BINARY = BUILD / "ecrs_bench"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("stream", "market", "flash")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        sys.exit("run.py: the repository's sources are missing; "
                 "the benchmark builds them from " + str(ROOT))
    steps = [["cmake", "--build", str(BUILD), "--target", "ecrs_bench", "-j",
              str(min(4, len(os.sched_getaffinity(0))))]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(ROOT / "benchmark"), "-B",
                         str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: building ecrs_bench failed")


def git_sha():
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload, seed, seconds, trace, corrupt_digest=False):
    """One ecrs_bench process; returns its result with the host block."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(trace)}",
           f"--trace_out={BUILD / f'trace-{workload}-seed{seed}.json'}"]
    if corrupt_digest:
        cmd.append("--corrupt_digest=1")
    load_before = os.getloadavg()
    try:
        # Killed and reaped on expiry, inside the 180 s a run may take.
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=120 + 2 * seconds)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} seed {seed} timed out")
    if out.returncode != 0:
        sys.exit(f"run.py: {workload} seed {seed} failed "
                 f"(exit {out.returncode})")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["host"].update(git_sha=git_sha(), loadavg_before=load_before,
                          loadavg_after=os.getloadavg())
    expected = [m["name"] for m in
                load_spec()["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        sys.exit(f"run.py: ecrs_bench reported {sorted(result['metrics'])}, "
                 f"BENCHMARK.json lists {sorted(expected)}")
    return result


def show(result):
    print(f"{result['workload']} seed {result['seed']}: "
          f"{result['attempted']} rounds, every gate passed")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    print(f"  host {json.dumps(result['host'])}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs):
    """{workload: {metric: [values]}} over a list of run results."""
    table = {}
    for r in runs:
        for name, m in r["metrics"].items():
            table.setdefault(r["workload"], {}).setdefault(name, []).append(
                m["value"])
    return table


def repeat(args):
    spec = load_spec()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    for w in workloads:
        for i in range(args.repeat):
            r = run_once(w, args.seed + i, args.seconds, args.trace,
                         args.corrupt_digest)
            log(f"{w} seed {args.seed + i}: load "
                f"{r['host']['loadavg_before'][0]:.2f}")
            runs.append(r)
    doc = {"seconds": args.seconds, "trace": bool(args.trace), "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for w, metrics in summarize(runs).items():
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{w:7s} {name:28s} median {med:12.6g} {units[name]:7s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}")


def compare(path_a, path_b):
    spec = load_spec()
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for label, doc in (("A", a), ("B", b)):
        loads = [r["host"]["loadavg_before"][0] for r in doc["runs"]]
        shas = sorted({r["host"]["git_sha"] for r in doc["runs"]})
        print(f"{label}: {len(doc['runs'])} runs, commit {', '.join(shas)}, "
              f"1-min load {min(loads):.2f}-{max(loads):.2f}")
    ta = summarize(a["runs"])
    tb = summarize(b["runs"])
    disagree = 0
    print(f"{'workload':8s} {'metric':28s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'change':>8s} {'bound':>6s} verdict")
    for w in ta:
        for name, va in ta[w].items():
            vb = tb.get(w, {}).get(name)
            if vb is None:
                continue
            a1, am, a3 = quartiles(va)
            b1, bm, b3 = quartiles(vb)
            change = (bm - am) / am if am else float("nan")
            m = metrics[name]
            verdict, bound = "-", "-"
            if "bound" in m:
                ok = abs(change) <= m["bound"]
                disagree += not ok
                verdict = "agree" if ok else "DISAGREE"
                bound = f"{m['bound']:.1%}"
            print(f"{w:8s} {name:28s} {am:12.6g} [{a1:9.4g}, {a3:9.4g}] "
                  f"{bm:12.6g} [{b1:9.4g}, {b3:9.4g}] {change:8.2%} "
                  f"{bound:>6s} {verdict}")
    return 1 if disagree else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=0,
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--out", help="where --repeat writes its runs")
    parser.add_argument("--corrupt-digest", action="store_true",
                        help="flip a compared digest bit; the run must fail")
    args = parser.parse_args(argv)
    build()
    if args.repeat:
        repeat(args)
        return 0
    if args.workload is None:
        for w in WORKLOADS:
            show(run_once(w, args.seed, args.seconds, args.trace,
                          args.corrupt_digest))
        return 0
    result = run_once(args.workload, args.seed, args.seconds, args.trace,
                      args.corrupt_digest)
    show(result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
