"""Command line front end: simulate, converge, mesh-info."""

from __future__ import annotations

import argparse
import sys

from . import harness
from .assembly import SolverError
from .mesh import MeshError, compute_edge_geometry, is_delaunay, read_mesh


def _override_pairs(pairs):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise harness.ConfigError(f"override {item!r} must look like key=value")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _cmd_simulate(args):
    cfg = harness.parse_config(args.config, _override_pairs(args.set))
    state, records = harness.run_simulation(cfg)
    last = records[-1] if records else None
    print(f"scheme={cfg.scheme} problem={cfg.problem} m={cfg.m:g} "
          f"steps={last.step if last else 0} t={state.time:g}")
    if last:
        print(f"mass={last.mass:.12g} energy={last.energy:.12g} "
              f"min={last.min_density:.6g} max={last.max_density:.6g}")
    if cfg.output:
        harness.write_timeseries_csv(records, cfg.output + "_timeseries.csv")
        harness.write_vtk(state, cfg.output + "_final.vtk", title=f"{cfg.scheme} {cfg.problem}")
        print(f"wrote {cfg.output}_timeseries.csv and {cfg.output}_final.vtk")
    return 0


def _cmd_converge(args):
    cfg = harness.parse_config(args.config, _override_pairs(args.set))
    rows = harness.run_convergence(cfg)
    print(harness.CONVERGENCE_HEADER)
    for r in rows:
        oi = "-" if r.order_inner is None else f"{r.order_inner:.3f}"
        of = "-" if r.order_full is None else f"{r.order_full:.3f}"
        print(f"{r.level},{r.N},{r.dt:g},{r.error_inner:.6e},{oi},{r.error_full:.6e},{of}")
    if cfg.output:
        harness.write_convergence_csv(rows, cfg.output + "_convergence.csv")
        print(f"wrote {cfg.output}_convergence.csv")
    return 0


def _cmd_mesh_info(args):
    mesh = read_mesh(args.meshfile)
    omega = compute_edge_geometry(mesh)
    boundary = int((~mesh.interior_faces).sum())
    print(f"dim={mesh.dim} kind={mesh.cell_kind}")
    print(f"vertices={mesh.n_vertices} cells={mesh.n_cells} "
          f"faces={mesh.n_faces} boundary_faces={boundary}")
    print(f"volume={mesh.volume:.12g}")
    print(f"delaunay={is_delaunay(mesh, omega)} strict_delaunay={is_delaunay(mesh, omega, strict=True)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pmefem",
        description="Finite element solvers for the porous medium equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one simulation from a config file")
    p.add_argument("config")
    p.add_argument("--set", "-o", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("converge", help="run a mesh refinement study")
    p.add_argument("config")
    p.add_argument("--set", "-o", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable), e.g. -o levels=4")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("mesh-info", help="describe an ASCII mesh file")
    p.add_argument("meshfile")
    p.set_defaults(func=_cmd_mesh_info)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (harness.ConfigError, FileNotFoundError, SolverError, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
