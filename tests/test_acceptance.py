"""Acceptance suite: convergence-table reproduction, waiting-time behavior,
structural invariants, oracle equivalences, and the qualitative runs.

Each test prints one PASS/FAIL line (run with -s to see them all).
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from pmefem.assembly import lumped_mass, stiffness_edge_based, stiffness_vertex_quadrature
from pmefem.harness import RunConfig, run_convergence, run_simulation
from pmefem.logdensity import (
    LogDensityState,
    bounds,
    entropy_energy,
    step_logdensity,
)
from pmefem.mesh import build_structured_mesh, compute_edge_geometry, is_delaunay
from pmefem.mixed import cfl_max_dt, init_mixed_state, physical_energy, step_mixed
from pmefem.problems import barenblatt, get_problem

from test_assembly import p1_stiffness_oracle
from test_mixed import state_from_rho


def report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num} [{status}] {label}" + ("" if not failures else f" :: {failures}"))
    assert not failures, f"criterion {num}: {failures}"


REFERENCE_LD_1D = [1.19e-1, 3.04e-2, 7.57e-3, 1.88e-3]
REFERENCE_MIXED_1D = [4.53e-2, 2.27e-2, 1.13e-2, 5.67e-3]


def test_criterion_1_logdensity_1d_table():
    cfg = RunConfig(scheme="logdensity", problem="barenblatt1d", m=2.0,
                    dt=1 / 5, T=1.0, counts=(100,), levels=4)
    rows = run_convergence(cfg)
    failures = []
    for row, ref in zip(rows, REFERENCE_LD_1D):
        if not ref / 2 <= row.error_inner <= ref * 2:
            failures.append(f"N={row.N} inner error {row.error_inner:.3e} vs {ref:.2e}")
        if row.order_inner is not None and not 1.7 <= row.order_inner <= 2.3:
            failures.append(f"N={row.N} inner order {row.order_inner:.3f}")
    detail = ", ".join(f"{r.error_inner:.3e}" for r in rows)
    report(1, f"log-density 1D m=2 inner errors ({detail})", failures)


def test_criterion_2_mixed_1d_table():
    cfg = RunConfig(scheme="mixed", problem="barenblatt1d", m=2.0,
                    dt=1 / 10, T=1.0, counts=(100,), levels=4)
    rows = run_convergence(cfg)
    failures = []
    for row, ref in zip(rows, REFERENCE_MIXED_1D):
        if not ref / 2 <= row.error_inner <= ref * 2:
            failures.append(f"N={row.N} inner error {row.error_inner:.3e} vs {ref:.2e}")
        if row.order_inner is not None and not 0.85 <= row.order_inner <= 1.15:
            failures.append(f"N={row.N} inner order {row.order_inner:.3f}")
    detail = ", ".join(f"{r.error_inner:.3e}" for r in rows)
    report(2, f"mixed 1D m=2 inner errors ({detail})", failures)


def test_criterion_3_2d_spot_check():
    failures = []
    cfg = RunConfig(scheme="logdensity", problem="barenblatt2d", m=2.0,
                    dt=1 / 5, T=0.2, counts=(32, 32), levels=2)
    ld_rows = run_convergence(cfg)
    ld_order = ld_rows[1].order_inner
    if not 1.5 <= ld_order <= 2.3:
        failures.append(f"log-density inner order {ld_order:.3f} outside [1.5, 2.3]")
    cfg = RunConfig(scheme="mixed", problem="barenblatt2d", m=2.0,
                    dt=1 / 10, T=0.2, counts=(32, 32), levels=2)
    mx_rows = run_convergence(cfg)
    mx_order = mx_rows[1].order_inner
    if not 0.85 <= mx_order <= 1.15:
        failures.append(f"mixed inner order {mx_order:.3f} outside [0.85, 1.15]")
    report(3, f"2D spot check orders (log-density {ld_order:.3f}, mixed {mx_order:.3f})", failures)


def test_criterion_4_waiting_time():
    tracked = {}
    for scheme in ("logdensity", "mixed"):
        vals = []
        for n in (200, 400, 800):
            cfg = RunConfig(scheme=scheme, problem="waiting", m=3.0,
                            dt=1e-3, T=0.15, counts=(n,))
            _, records = run_simulation(cfg)
            at_tstar = [r for r in records if abs(r.time - 0.125) < 5e-4]
            vals.append(at_tstar[0].tracked_density)
        tracked[scheme] = vals
    failures = []
    for scheme, vals in tracked.items():
        if not all(v > 0 for v in vals):
            failures.append(f"{scheme} tracked density not positive: {vals}")
        if not (vals[0] > vals[1] > vals[2]):
            failures.append(f"{scheme} tracked density not strictly decreasing: {vals}")
    for ld, mx in zip(tracked["logdensity"], tracked["mixed"]):
        if not mx < ld:
            failures.append(f"mixed {mx:.3e} not below log-density {ld:.3e}")
    detail = ", ".join(f"{v:.2e}" for v in tracked["logdensity"] + tracked["mixed"])
    report(4, f"waiting-time tracked densities at t*=0.125 ({detail})", failures)


def _mesh_suite():
    return {
        "interval": build_structured_mesh("interval", (-1, 1), 24),
        "triangle": build_structured_mesh("triangle", ((0, 1), (0, 1)), (6, 6)),
        "acute": build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (6, 6)),
        "quad": build_structured_mesh("quad", ((0, 1), (0, 1)), (6, 6)),
    }


def test_criterion_5_invariant_suite():
    rng = np.random.default_rng(17)
    failures = []
    for name, mesh in _mesh_suite().items():
        geom = compute_edge_geometry(mesh)
        u0 = np.log(0.5 + rng.uniform(0, 1.5, mesh.n_vertices))
        # log-density: mass, energy, bound preservation, uniform fixed point
        variants = ("vertex",) if mesh.cell_kind == "quad" else ("vertex", "edge")
        for variant in variants:
            st = LogDensityState(mesh=mesh, geom=geom, m=2.0, u=u0.copy(),
                                 active=np.ones(mesh.n_vertices, bool),
                                 lumped=lumped_mass(mesh))
            mass0, energy = st.total_mass(), entropy_energy(st)
            lo, hi = bounds(st)
            for _ in range(4):
                st = step_logdensity(st, 0.03, variant=variant)
                if abs(st.total_mass() / mass0 - 1) > 1e-9:
                    failures.append(f"LD mass drift on {name}/{variant}")
                e = entropy_energy(st)
                if e > energy + 1e-10:
                    failures.append(f"LD energy increase on {name}/{variant}")
                energy = e
                if variant == "edge" and is_delaunay(geom):
                    lo2, hi2 = bounds(st)
                    if lo2 < lo - 1e-9 or hi2 > hi + 1e-9:
                        failures.append(f"LD bound violation on {name}")
                    lo, hi = lo2, hi2
        ust = LogDensityState(mesh=mesh, geom=geom, m=2.0,
                              u=np.full(mesh.n_vertices, 0.4),
                              active=np.ones(mesh.n_vertices, bool),
                              lumped=lumped_mass(mesh))
        if not np.array_equal(step_logdensity(ust, 0.2).u, ust.u):
            failures.append(f"LD uniform state not a fixed point on {name}")

        # mixed: mass, energy, CFL positivity, uniform fixed point
        if name == "triangle":
            continue  # right-angle split is not strictly Delaunay
        rho0 = rng.uniform(0.1, 2.0, mesh.n_cells)
        st = state_from_rho(mesh, rho0, m=2.0)
        mass0, energy = st.total_mass(), physical_energy(st)
        dt = 0.02
        for _ in range(4):
            st = step_mixed(st, dt)
            if abs(st.total_mass() / mass0 - 1) > 1e-9:
                failures.append(f"mixed mass drift on {name}")
            e = physical_energy(st)
            if e > energy + 1e-10:
                failures.append(f"mixed energy increase on {name}")
            energy = e
            _, bound = cfl_max_dt(st)
            if dt <= bound and st.rho.min() < -1e-12:
                failures.append(f"mixed positivity violation under CFL on {name}")
        ust = state_from_rho(mesh, np.full(mesh.n_cells, 0.8), m=2.0)
        if not np.array_equal(step_mixed(ust, 0.2).rho, ust.rho):
            failures.append(f"mixed uniform state not a fixed point on {name}")
    report(5, "invariant suite over interval/triangle/acute/quad meshes", failures)


def test_criterion_6_oracle_equivalences():
    failures = []
    # constant-coefficient equivalence against direct assembly
    for name, mesh in _mesh_suite().items():
        geom = compute_edge_geometry(mesh)
        oracle = p1_stiffness_oracle(mesh, coeff=2.0)
        vertex = stiffness_vertex_quadrature(mesh, np.zeros(mesh.n_vertices), 2.0).tocsr().toarray()
        if np.max(np.abs(vertex - oracle)) > 1e-12:
            failures.append(f"vertex stiffness mismatch on {name}")
        if mesh.cell_kind != "quad":
            edge = stiffness_edge_based(mesh, geom, np.zeros(mesh.n_vertices), 2.0).tocsr().toarray()
            if np.max(np.abs(edge - oracle)) > 1e-12:
                failures.append(f"edge stiffness mismatch on {name}")

    # log-density 2-node micro-step against the bisection oracle
    mesh1 = build_structured_mesh("interval", (0, 1), 1)
    st = LogDensityState(mesh=mesh1, geom=compute_edge_geometry(mesh1), m=2.0,
                         u=np.array([0.0, np.log(2.0)]),
                         active=np.ones(2, bool), lumped=lumped_mass(mesh1))
    new = step_logdensity(st, 0.01, variant="vertex")
    a = brentq(lambda a: 2 * a - 2 + 0.2 * np.log(a / (3 - a)), 1e-12, 3 - 1e-12, xtol=1e-15)
    if np.max(np.abs(np.exp(new.u) - [a, 3 - a])) > 1e-6:
        failures.append(f"log-density micro-step {np.exp(new.u)} vs ({a:.6f}, {3-a:.6f})")
    if np.max(np.abs(np.exp(new.u) - [1.0604, 1.9396])) > 1e-4:
        failures.append("log-density micro-step off the reference values")

    # mixed 2-cell step against the hand solution
    mesh2 = build_structured_mesh("interval", (0, 2), 2)
    st2 = init_mixed_state(mesh2, lambda pts: np.where(pts[:, 0] < 1, 1.0, 0.0), 2.0)
    new2 = step_mixed(st2, 0.25)
    if np.max(np.abs(new2.rho - [0.75, 0.25])) > 1e-6:
        failures.append(f"mixed micro-step {new2.rho} vs (0.75, 0.25)")

    # Barenblatt profiles satisfy the equation to finite-difference accuracy
    h = 1e-4
    rng = np.random.default_rng(8)
    for m, d in ((2, 1), (3, 1), (2, 2), (3, 2)):
        s0 = 3.0 if d == 1 else 1.0
        for _ in range(8):
            x = rng.uniform(-1.2, 1.2, size=d)
            rho = lambda pt, tt: barenblatt(pt if d > 1 else pt[0], tt, m, s0, d)
            if rho(x, 0.5) < 0.2:
                continue
            dt_rho = (rho(x, 0.5 + h) - rho(x, 0.5 - h)) / (2 * h)
            lap = 0.0
            for k in range(d):
                e = np.zeros(d)
                e[k] = h
                lap += (rho(x + e, 0.5) ** m - 2 * rho(x, 0.5) ** m + rho(x - e, 0.5) ** m) / h**2
            if abs(dt_rho - lap) > 1e-3:
                failures.append(f"Barenblatt residual {abs(dt_rho - lap):.2e} at m={m} d={d}")
    report(6, "stiffness equivalences, micro-step oracles, Barenblatt residual", failures)


@pytest.mark.parametrize("problem,final_time", [("gaussians", 0.3), ("horseshoe", 1.0)])
@pytest.mark.parametrize("scheme", ["logdensity", "mixed"])
def test_criterion_7_qualitative_runs(problem, final_time, scheme):
    cfg = RunConfig(scheme=scheme, problem=problem, m=3.0, dt=1e-3, T=final_time)
    mesh = build_structured_mesh(cfg.mesh_kind or "acute_triangle",
                                 get_problem(problem, 3.0).domain, (40, 40))
    assert mesh.n_cells >= 3000
    state, records = run_simulation(cfg)
    failures = []
    mass = [r.mass for r in records]
    if max(abs(v / mass[0] - 1) for v in mass) > 1e-9:
        failures.append("mass drift above 1e-9")
    energy = [r.energy for r in records]
    if not all(b <= a + 1e-10 for a, b in zip(energy, energy[1:])):
        failures.append("energy not monotone")
    if scheme == "logdensity":
        if not all(np.isfinite(r.min_density) and r.min_density >= 0 for r in records):
            failures.append("active density not positive")
    if records[-1].time != pytest.approx(final_time):
        failures.append("run did not reach the final time")
    report(7, f"{problem} {scheme} T={final_time} on {mesh.n_cells} triangles", failures)
