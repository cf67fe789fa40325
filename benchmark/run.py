#!/usr/bin/env python3
"""Single entry point for nodebench outside the benchmark driver.

  benchmark/run.py                  build, run the four workloads, then the four
                                    traced runs; write benchmark/out/results.json
  benchmark/run.py --check FILE     the same, then compare with a saved results
                                    file using the bounds in BENCHMARK.json
  benchmark/run.py --spread [N]     steadiness check: N (default 10) end-to-end
                                    runs per workload, each with another seed

Options: --seed N (default 7), --seconds S (default: BENCHMARK.json's
run_seconds), --workload NAME (repeatable; default: all).
"""

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def build():
    """Builds --release into the repository's shared target/ directory."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(REPO / "target"))
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
        check=True,
        env=env,
    )
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "nodebench"


@functools.cache
def commit():
    git = subprocess.run(
        ["git", "-C", str(REPO), "describe", "--always", "--dirty"], capture_output=True, text=True
    )
    return git.stdout.strip() if git.returncode == 0 else "unknown"


def run_one(binary, workload, seed, seconds, trace):
    """One benchmark process; returns its detail file's content."""
    env = dict(os.environ, NODEBENCH_COMMIT=commit())
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=REPO)
    for line in proc.stdout.splitlines()[:-1]:
        if not line.startswith(("config:", "fingerprint:")):
            print("   ", line)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{workload} (trace {trace}) failed with exit code {proc.returncode}")
    mode = "trace" if trace else "e2e"
    return json.loads((OUT / f"{workload}.{mode}.json").read_text())


def worse_by(metric, new, old):
    """How much worse `new` is than `old`, as a share of `old`."""
    change = (new - old) / old
    return change if BOUNDS[metric]["better"] == "lower" else -change


def spread_of(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_all(binary, workloads, seed, seconds):
    results = {"benchmark": "nodebench", "commit": commit(), "seed": seed, "workloads": {}}
    for trace in (0, 1):
        for w in workloads:
            print(f"== {w} ({'traced' if trace else 'end to end'})")
            detail = run_one(binary, w, seed, seconds, trace)
            results["host"] = detail["host"]
            results["workloads"].setdefault(w, {})["trace" if trace else "e2e"] = detail
    path = OUT / "results.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"merged results written to {path}")
    return results


def check(fresh, saved):
    """Prints regressed, unresolved and held pairings; returns the exit code."""
    regressed, unresolved, held = [], [], 0
    for w, runs in fresh["workloads"].items():
        old = saved["workloads"].get(w, {}).get("e2e")
        if old is None:
            continue
        for name, m in runs["e2e"]["metrics"].items():
            bound = BOUNDS[name]["bound"]
            delta = worse_by(name, m["value"], old["metrics"][name]["value"])
            # a timed metric whose own repetitions spread wider than its
            # bound cannot tell a regression from noise
            noisy = "q1" in m and (m["q3"] - m["q1"]) / m["median"] > bound
            row = f"{w:14} {name:26} {delta:+8.2%} (bound {bound:.0%})"
            if noisy:
                unresolved.append(row)
            elif delta > bound:
                regressed.append(row)
            else:
                held += 1
    for title, rows in (("unresolved (spread > bound)", unresolved), ("regressed", regressed)):
        print(f"-- {title}: {len(rows)}")
        for row in rows:
            print("  ", row)
    print(f"-- within bound: {held}")
    return 1 if regressed else 0


def spread(binary, workloads, seconds, runs):
    """The contract's steadiness check: one run per seed, quartile spread."""
    worst = 0.0
    for w in workloads:
        values = {}
        for seed in range(1, runs + 1):
            print(f"== {w} seed {seed}")
            detail = run_one(binary, w, seed, seconds, 0)
            for name, m in detail["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            s, bound = spread_of(vs), BOUNDS[name]["bound"]
            flag = "" if s < bound / 3 else ("  > bound/3" if s <= bound else "  > BOUND")
            worst = max(worst, s / bound)
            print(f"{w:14} {name:26} median {statistics.median(vs):16.4f} spread {s:7.2%} bound {bound:.0%}{flag}")
    print(f"largest spread / bound: {worst:.2f}")
    return 0 if worst <= 1 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--check", metavar="FILE")
    ap.add_argument("--spread", nargs="?", type=int, const=10, metavar="N")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    saved = json.loads(Path(args.check).read_text()) if args.check else None

    binary = build()
    if args.spread:
        return spread(binary, workloads, args.seconds, args.spread)
    fresh = run_all(binary, workloads, args.seed, args.seconds)
    return check(fresh, saved) if saved else 0


if __name__ == "__main__":
    sys.exit(main())
