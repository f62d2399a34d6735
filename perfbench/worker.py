"""One benchmark operation in a fresh process.

Usage: python worker.py '<json spec>'

The spec names the workload, the scheme of each config file, the CLI
commands to run (`simulate <cfg>` or `converge <cfg>`), whether to trace,
and where to write spans.  The worker runs the commands through
`pmefem.cli.main`, exactly as `pmefem simulate` / `pmefem converge` would,
then checks the outputs and prints one JSON object as its last line.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys

import checks
from hooks import Probe, Tracer, clock, error_info
from pmefem import cli


def _simulation_checks(spec, run):
    """Checks of one `simulate` operation, from its output files."""
    out = spec["outputs"][0]
    scheme, m, dt = spec["schemes"][0], spec["m"], spec["dt"]
    ts = checks.read_timeseries(out + "_timeseries.csv")
    points, cells, (_, rho_final) = checks.read_vtk(out + "_final.vtk")
    rho0 = checks.initial_density(run["initial"])
    fails = []
    steps = int(round(spec["T"] / dt))
    if len(ts.get("step", ())) != steps or abs(ts["time"][-1] - spec["T"]) > 1e-9:
        fails.append(f"run did not reach T={spec['T']} in {steps} steps")
    fails += checks.check_run(scheme, m, points, cells, rho0, rho_final,
                              ts["mass"], ts["energy"], ts["min_density"])
    for prop in spec["properties"]:
        if prop == "support_grows" and run["support_shrinks"]:
            fails.append(f"support shrank on {run['support_shrinks']} steps")
        elif prop == "max_principle":
            fails += checks.check_max_never_increases(rho0, ts["max_density"])
        elif prop == "cfl_positivity":
            fails += checks.check_mixed_positivity(dt, ts["min_density"], ts["cfl_bound"])
    return fails


def _convergence_checks(spec, probe):
    """Checks of one refinement-study operation: the paper's table from the
    `_convergence.csv` files, mass and energy per level from the captured runs."""
    fails = []
    for scheme, out in zip(spec["schemes"], spec["outputs"]):
        fails += checks.check_convergence(scheme, checks.read_convergence(out + "_convergence.csv"))
    for run in probe.runs:
        state, records = run["result"]
        points, cells = checks.mesh_arrays(state.mesh)
        rho0 = checks.initial_density(run["initial"])
        rho1 = checks.initial_density(state)
        level_fails = checks.check_run(
            run["cfg"].scheme, run["cfg"].m, points, cells, rho0, rho1,
            [r.mass for r in records], [r.energy for r in records],
            [r.min_density for r in records])
        fails += [f"{run['cfg'].scheme} N={run['cfg'].counts[0]}: {f}" for f in level_fails]
    return fails


def main(spec):
    probe = Probe()
    probe.install()
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    study = spec["commands"][0][0] == "converge"
    attempted = spec["operations"]
    errors = []
    wall = 0.0
    for argv in spec["commands"]:
        runs_before = len(probe.runs)
        t0 = clock()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = tracer.call("cli", cli.main, argv) if tracer else cli.main(argv)
            if rc:
                raise RuntimeError(f"pmefem {' '.join(argv)} exited with code {rc}")
        except Exception as exc:
            failed_runs = [r["error"] for r in probe.runs[runs_before:] if r["error"]]
            errors += failed_runs or [error_info(exc)]
        wall += clock() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = min(attempted, len(errors))
    result = {"attempted": attempted, "failed": failed, "errors": errors, "check_failures": []}
    if not errors:
        setup = probe.setup_seconds()
        result["metrics"] = {
            "wall_s": wall,
            "setup_s": setup,
            "march_s": probe.harness_seconds() - setup,
            "peak_rss_mb": peak_rss_mb,
        }
        result["check_failures"] = (_convergence_checks(spec, probe) if study
                                    else _simulation_checks(spec, probe.runs[0]))
        if tracer:
            result["layers"] = tracer.layer_metrics()
            with open(spec["spans"], "w", encoding="utf-8") as f:
                json.dump(tracer.to_json(), f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
