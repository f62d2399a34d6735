"""Layered benchmark for pmefem.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ld-horseshoe --seed 0 --seconds 30 --trace 0

Each operation runs in a fresh worker process (`worker.py`) that drives
`pmefem.cli.main` with a generated config file, exactly as `pmefem simulate`
or `pmefem converge` would, and checks the outputs.  Operations repeat until
`--seconds` is used up.  With `--trace 0` the last line of standard output
is a JSON object with the median end-to-end metrics over the operations;
with `--trace 1` operations alternate between untraced and traced runs and
the JSON holds the per-layer metrics derived from the traced runs' spans.
See README.md for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# a run must end within 180 s: no new operation starts after HARD_LIMIT_S,
# and a worker still running at WORKER_KILL_S is killed
HARD_LIMIT_S = 150.0
WORKER_KILL_S = 175.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "march_s": "s", "peak_rss_mb": "MB"}

# Each workload: the config keys of each CLI command, the unshifted domain,
# and the extra properties its checks test.  All 2D runs use acute_triangle
# meshes and dt = 1e-3.
WORKLOADS = {
    "ld-horseshoe": {
        "command": "simulate",
        "configs": [dict(scheme="logdensity", problem="horseshoe", m=3, dt=1e-3, T=0.05,
                         mesh="acute_triangle", n="40x40", variant="vertex")],
        "domain": ((-2.0, 2.0), (-2.0, 2.0)),
        "properties": ["support_grows"],
    },
    "ld-gaussians-fine": {
        "command": "simulate",
        "configs": [dict(scheme="logdensity", problem="gaussians", m=3, dt=1e-3, T=0.002,
                         mesh="acute_triangle", n="160x160", variant="edge")],
        "domain": ((-1.0, 1.0), (-1.0, 1.0)),
        "properties": ["max_principle"],
    },
    "mixed-horseshoe": {
        "command": "simulate",
        "configs": [dict(scheme="mixed", problem="horseshoe", m=3, dt=1e-3, T=0.1,
                         mesh="acute_triangle", n="40x40")],
        "domain": ((-2.0, 2.0), (-2.0, 2.0)),
        "properties": ["cfl_positivity"],
    },
    "barenblatt1d-converge": {
        "command": "converge",
        "configs": [dict(scheme="logdensity", problem="barenblatt1d", m=2, dt=0.2, T=1.0, n="100", levels=4),
                    dict(scheme="mixed", problem="barenblatt1d", m=2, dt=0.1, T=1.0, n="100", levels=4)],
        "domain": ((-10.0, 10.0),),
        "properties": [],
    },
}


def shifted_domain(domain, counts, seed):
    """Seed 0 is the paper's domain; any other seed shifts each axis by a
    seeded offset of less than half a cell of the base mesh."""
    rng = random.Random(seed)
    shifted = []
    for (lo, hi), n in zip(domain, counts):
        off = 0.0 if seed == 0 else (rng.random() - 0.5) * (hi - lo) / n
        shifted.append((lo + off, hi + off))
    return shifted


def write_config(path, keys, domain):
    lines = [f"{k} = {v}" for k, v in keys.items()]
    lines.append("domain = " + " ".join(repr(x) for axis in domain for x in axis))
    lines.append(f"output = {path.with_suffix('')}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_spec(name, seed):
    """Write the workload's config files and return the worker spec."""
    wl = WORKLOADS[name]
    work = OUT / name
    work.mkdir(parents=True, exist_ok=True)
    commands, outputs = [], []
    for keys in wl["configs"]:
        counts = [int(c) for c in keys["n"].split("x")]
        cfg = work / f"{keys['scheme']}.cfg"
        write_config(cfg, keys, shifted_domain(wl["domain"], counts, seed))
        commands.append([wl["command"], str(cfg)])
        outputs.append(str(cfg.with_suffix("")))
    first = wl["configs"][0]
    levels = int(first.get("levels", 1))
    return {
        "workload": name,
        "commands": commands,
        "outputs": outputs,
        "schemes": [keys["scheme"] for keys in wl["configs"]],
        "m": float(first["m"]), "dt": float(first["dt"]), "T": float(first["T"]),
        # an operation is one simulation or one refinement level
        "operations": levels * len(commands) if wl["command"] == "converge" else len(commands),
        "properties": wl["properties"],
        "trace": False,
        "spans": str(OUT / f"spans-{name}.json"),
    }


def run_worker(spec, timeout):
    """One operation in a fresh process; returns the worker's JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    attempted = spec["operations"]
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"attempted": attempted, "failed": attempted, "check_failures": [],
                "errors": [{"type": "TimeoutExpired", "message": f"operation exceeded {timeout:.0f} s"}]}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"attempted": attempted, "failed": attempted, "check_failures": [],
                "errors": [{"type": "WorkerCrash", "message": f"exit {proc.returncode}: {tail}"}]}


def quartile_spread(values):
    """(q3 - q1) / median, or 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def layer_unit(name):
    for suffix, unit in (("_s", "s"), ("_bytes", "bytes"), ("_dofs", "dofs")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pmefem" / "__init__.py").is_file():
        print(f"error: no pmefem sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    spec = make_spec(args.workload, args.seed)
    modes = (False, True) if args.trace else (False,)
    results = {False: [], True: []}
    attempted = failed = 0
    rounds = 0
    while True:
        for traced in modes:
            left = WORKER_KILL_S - (time.perf_counter() - started)
            res = run_worker(dict(spec, trace=traced), timeout=max(left, 1.0))
            attempted += res["attempted"]
            failed += res["failed"]
            results[traced].append(res)
            if "metrics" in res:
                print(f"op {rounds + 1}{' traced' if traced else ''}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in res["metrics"].items()))
            for err in res["errors"]:
                print(f"failed: {err}")
            for msg in res["check_failures"]:
                print(f"check failed: {msg}")
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / rounds > min(args.seconds, HARD_LIMIT_S):
            break

    ok = [r["metrics"] for r in results[False] if "metrics" in r]
    correct = bool(ok) and not any(r["check_failures"] for rs in results.values() for r in rs)
    metrics = {}
    if ok:
        for name, unit in END_TO_END.items():
            values = [m[name] for m in ok]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"{args.workload} seed={args.seed} {name} = {statistics.median(values):.6g} {unit} "
                  f"(median of {len(values)} ops, quartile spread {100 * quartile_spread(values):.1f}%)")
    if args.trace:
        traced = [r for r in results[True] if "layers" in r]
        if traced and ok:
            layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
            layers["trace.overhead_s"] = (statistics.median(r["metrics"]["wall_s"] for r in traced)
                                          - metrics["wall_s"]["value"])
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
            for k, v in metrics.items():
                print(f"{args.workload} seed={args.seed} {k} = {v['value']:.6g} {v['unit']}")
        else:
            metrics = {}
    print(f"{args.workload} seed={args.seed} attempted={attempted} failed={failed} correct={correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
