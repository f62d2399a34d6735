"""Config parsing, error norms, simulation records, file formats, CLI."""

import io
import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest

from pmefem import cli, harness
from pmefem import logdensity as ld
from pmefem import mixed as mx
from pmefem.assembly import NEWTON_TOL, GraphOperator, SolverError
from pmefem.harness import (
    ConfigError,
    RunConfig,
    convergence_order,
    l2_error,
    parse_config,
    run_convergence,
    run_simulation,
    tracked_index,
    write_convergence_csv,
    write_timeseries_csv,
    write_vtk,
    ConvergenceRow,
    _QUADRATURE,
    _VTK_CELL_TYPES,
    _mixed_step_with_cfl,
)
from pmefem.mesh import (
    DELAUNAY_TOL,
    ROW_BLOCK,
    MeshError,
    build_structured_mesh,
    compute_edge_geometry,
    write_mesh,
)
from pmefem.mixed import init_mixed_state
from pmefem.logdensity import init_log_state
from pmefem.problems import get_problem


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = """
# minimal valid configuration
scheme = logdensity
problem = barenblatt1d
m = 2
dt = 0.2
T = 1
"""


def minimal(**keys):
    """MINIMAL with the given keys set; a config file names each key once."""
    lines = [l for l in MINIMAL.splitlines() if l.partition("=")[0].strip() not in keys]
    return "\n".join(lines + [f"{k} = {v}" for k, v in keys.items()]) + "\n"


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.counts == (100,)
        assert cfg.domain == (-10.0, 10.0)
        assert cfg.mesh_kind == "interval"
        assert cfg.newton_maxiter == 50
        assert cfg.variant == "vertex"
        # single-valued settings are module constants, not config keys
        assert NEWTON_TOL == 1e-11
        assert ld.CUTOFF == 1e-14
        assert ld.LOG_FLOOR == -50.0
        assert DELAUNAY_TOL == 1e-12

    @pytest.mark.parametrize("line", ["newton_tol = 1e-11", "cutoff = 1e-14", "quad_degree = 4", "u_floor = -50"])
    def test_removed_keys_are_unknown(self, tmp_path, line):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(write_cfg(tmp_path, MINIMAL + line + "\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, MINIMAL + "wibble = 3\n"))

    def test_m_equal_one_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, MINIMAL.replace("m = 2", "m = 1")))

    def test_variant_is_logdensity_only(self, tmp_path):
        text = MINIMAL.replace("scheme = logdensity", "scheme = mixed") + "variant = edge\n"
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, text))
        # also when given its default value, or only as an override
        mixed = write_cfg(tmp_path, MINIMAL.replace("scheme = logdensity", "scheme = mixed"))
        with pytest.raises(ConfigError, match="log-density scheme only"):
            parse_config(mixed, {"variant": "vertex"})

    @pytest.mark.parametrize("problem", ["barenblatt1d", "barenblatt2d", "waiting", "horseshoe"])
    def test_edge_variant_rejects_compact_support(self, tmp_path, problem):
        # on simplices, where the edge variant is otherwise accepted
        kind = "interval" if problem in ("barenblatt1d", "waiting") else "acute_triangle"
        text = MINIMAL.replace("barenblatt1d", problem) + f"mesh = {kind}\n"
        message = f"edge variant freezes the support of problem '{problem}'"
        with pytest.raises(ConfigError, match=message):
            parse_config(write_cfg(tmp_path, text + "variant = edge\n"))
        with pytest.raises(ConfigError, match=message):
            run_simulation(RunConfig(scheme="logdensity", problem=problem, m=2.0, dt=0.1, T=1.0,
                                     mesh_kind=kind, variant="edge"))
        parse_config(write_cfg(tmp_path, text + "variant = vertex\n"))

    def test_autohalve_is_mixed_only(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, MINIMAL + "cfl_autohalve = true\n"))
        with pytest.raises(ConfigError, match="mixed scheme only"):
            parse_config(write_cfg(tmp_path, MINIMAL), {"cfl_autohalve": "false"})

    @pytest.mark.parametrize("scheme,iterations", [("logdensity", 3), ("mixed", 4)])
    def test_newton_maxiter_reaches_both_schemes(self, tmp_path, capsys, scheme, iterations):
        # log-density: newton_maxiter iterations and a polishing one;
        # mixed: newton_maxiter full and newton_maxiter halved iterations
        text = minimal(scheme=scheme, m=3, dt=0.1, T=0.1, n=30, newton_maxiter=2)
        assert cli.main(["simulate", str(write_cfg(tmp_path, text))]) == 2
        assert f"Newton did not converge in {iterations} iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["logdensity", "mixed"])
    @pytest.mark.parametrize("maxiter", [0, -3])
    def test_newton_maxiter_below_one_rejected(self, tmp_path, scheme, maxiter):
        text = MINIMAL.replace("logdensity", scheme) + f"newton_maxiter = {maxiter}\n"
        with pytest.raises(ConfigError, match="newton_maxiter must be >= 1"):
            parse_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("theta", ["1.5", "-0.1", "nan"])
    def test_waiting_theta_outside_unit_interval(self, tmp_path, capsys, theta):
        cfg = write_cfg(tmp_path, MINIMAL.replace("barenblatt1d", "waiting") + f"theta = {theta}\n")
        assert cli.main(["simulate", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: theta must lie in [0, 1]\n"
        assert parse_config(cfg, {"theta": "1"}).theta == 1.0

    @pytest.mark.parametrize("problem,line", [("horseshoe", "s0 = 5"), ("waiting", "s0 = 1"),
                                              ("horseshoe", "theta = 0.7"), ("barenblatt1d", "theta = 0")])
    def test_data_keys_of_other_problems_rejected(self, tmp_path, capsys, problem, line):
        cfg = write_cfg(tmp_path, MINIMAL.replace("barenblatt1d", problem) + line + "\n")
        assert cli.main(["simulate", str(cfg)]) == 2
        key = line.split()[0]
        assert capsys.readouterr().err.startswith(f"error: '{key}' applies to the ")
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, MINIMAL.replace("barenblatt1d", problem)), {key: "0.5"})

    @pytest.mark.parametrize("problem", ["barenblatt1d", "barenblatt2d"])
    @pytest.mark.parametrize("s0", ["-1", "0", "nan", "inf"])
    def test_s0_positive_and_finite(self, tmp_path, capsys, problem, s0):
        cfg = write_cfg(tmp_path, MINIMAL.replace("barenblatt1d", problem) + f"s0 = {s0}\n")
        assert cli.main(["simulate", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: s0 must be positive and finite\n"
        assert parse_config(cfg, {"s0": "0.5"}).s0 == 0.5

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["m", "dt", "T", "domain"])
    def test_non_finite_setting_rejected(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path, MINIMAL + "n = 20\n")
        text = f"-10 {value}" if key == "domain" else value
        assert cli.main(["simulate", str(cfg), "-o", f"{key}={text}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be finite") and err.count("\n") == 1

    def test_duplicate_key(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "n = 20\nm = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == f"{path}:9: key 'm' already given on line 5"
        # an override replaces the file's single value
        assert parse_config(write_cfg(tmp_path, MINIMAL), {"m": "3"}).m == 3.0

    @pytest.mark.parametrize("problem,line,message", [
        ("barenblatt1d", "n = 0", "n needs cell counts >= 1"),
        ("barenblatt1d", "n = -4", "n needs cell counts >= 1"),
        ("barenblatt2d", "n = 8x0", "n needs cell counts >= 1"),
        ("barenblatt1d", "domain = 1 1", "domain (1.0, 1.0) needs lo < hi"),
        ("barenblatt1d", "domain = 2 -2", "domain (2.0, -2.0) needs lo < hi"),
        ("barenblatt2d", "domain = -1 1 1 -1", "domain ((-1.0, 1.0), (1.0, -1.0)) needs lo < hi"),
        ("barenblatt1d", "domain = -1 1 -1 1", "has 2 axes, problem 'barenblatt1d' needs 1"),
        ("barenblatt2d", "domain = -1 1", "has 1 axes, problem 'barenblatt2d' needs 2"),
    ])
    def test_counts_and_domain_checked_at_read(self, tmp_path, capsys, problem, line, message):
        key, _, value = line.partition(" = ")
        cfg = write_cfg(tmp_path, minimal(problem=problem, **{key: value}))
        with pytest.raises(ConfigError, match=f"^{key} "):
            parse_config(cfg)
        assert cli.main(["simulate", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("line,message", [
        ("m = abc", "bad value for 'm': 'abc'"),
        ("n = 3.5", "bad value for 'n': '3.5'"),
        ("cfl_autohalve = maybe", "bad value for 'cfl_autohalve'"),
        ("n 40", "run.cfg:8: expected 'key = value'"),
        ("domain = 0 1 2", "bad value for 'domain': '0 1 2'"),
        ("scheme = warp", "unknown scheme 'warp'"),
        ("problem = tsunami", "unknown problem 'tsunami'"),
        ("dt = 0", "dt must be positive"),
        ("dt = -0.1", "dt must be positive"),
        ("variant = face", "unknown stiffness variant 'face'"),
        ("n = 10x10", "n needs 1 cell counts, got (10, 10)"),
    ])
    def test_bad_input_rejected(self, tmp_path, line, message):
        key, sep, value = line.partition(" = ")
        text = minimal(**{key: value}) if sep else MINIMAL + line + "\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert message in str(err.value)

    def test_missing_required(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, "scheme = mixed\nproblem = waiting\n"))
        assert "missing" in str(err.value)

    def test_overrides_win(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL), {"dt": "0.1", "n": "50"})
        assert cfg.dt == 0.1
        assert cfg.counts == (50,)

    def test_t_smaller_than_dt(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, MINIMAL.replace("T = 1", "T = 0.01")))

    def test_2d_counts_syntax(self, tmp_path):
        text = MINIMAL.replace("barenblatt1d", "barenblatt2d") + "n = 16x16\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.counts == (16, 16)

    def test_mesh_dimension_mismatch(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, MINIMAL + "mesh = quad\n"))

    @pytest.mark.parametrize("scheme,rejected,accepted", [
        ("mixed", "mesh = triangle\n", "mesh = acute_triangle\n"),
        ("logdensity", "mesh = quad\nvariant = edge\n", "mesh = quad\nvariant = vertex\n"),
    ])
    def test_scheme_mesh_mismatch(self, tmp_path, scheme, rejected, accepted):
        base = MINIMAL.replace("barenblatt1d", "barenblatt2d").replace("logdensity", scheme)
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, base + rejected))
        parse_config(write_cfg(tmp_path, base + accepted))


class TestL2Error:
    def test_exact_match_is_zero(self):
        mesh = build_structured_mesh("quad", ((0, 1), (0, 1)), (4, 4))
        st = init_mixed_state(mesh, lambda pts: np.ones(len(pts)), 2.0, compute_edge_geometry(mesh))
        assert l2_error(st, lambda pts: np.ones(len(pts)), ((0, 1), (0, 1))) == 0.0

    def test_unit_mismatch_on_unit_square(self):
        mesh = build_structured_mesh("quad", ((0, 1), (0, 1)), (4, 4))
        st = init_mixed_state(mesh, lambda pts: np.ones(len(pts)), 2.0, compute_edge_geometry(mesh))
        err = l2_error(st, lambda pts: np.zeros(len(pts)), ((0, 1), (0, 1)))
        assert err == pytest.approx(1.0, rel=1e-12)

    def test_p0_linear_exact(self):
        mesh = build_structured_mesh("interval", (0, 1), 1)
        st = init_mixed_state(mesh, lambda pts: np.full(len(pts), 0.5), 2.0, compute_edge_geometry(mesh))
        err = l2_error(st, lambda pts: pts[:, 0], (0, 1))
        assert err == pytest.approx(1 / math.sqrt(12), rel=1e-12)

    def test_log_state_interpolation(self):
        mesh = build_structured_mesh("interval", (0, 1), 20)
        st = init_log_state(mesh, lambda pts: np.exp(pts[:, 0]), 2.0)
        # u is exactly linear, so exp(u_h) equals exp(x) pointwise
        err = l2_error(st, lambda pts: np.exp(pts[:, 0]), (0, 1))
        assert err < 1e-14

    @pytest.mark.parametrize("kind", ["quad", "triangle"])
    def test_log_state_interpolation_2d(self, kind):
        mesh = build_structured_mesh(kind, ((0, 1), (0, 2)), (5, 4))
        density = lambda pts: np.exp(pts[:, 0] - 2 * pts[:, 1])
        st = init_log_state(mesh, density, 2.0)
        # linear u is reproduced by the P1 and the bilinear interpolant
        assert l2_error(st, density, ((0, 1), (0, 2))) < 1e-14

    @pytest.mark.parametrize("kind", ["interval", "quad", "triangle"])
    def test_quadrature_exact_to_degree_4(self, kind):
        phi, w = _QUADRATURE[kind]
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(phi.sum(axis=1), 1.0)
        box = ((0.5, 2.0),) if kind == "interval" else ((0.5, 2.0), (-1.0, 0.5))
        mesh = build_structured_mesh(kind, box, (3,) * len(box))
        st = init_log_state(mesh, lambda pts: np.zeros(len(pts)), 2.0)  # density 0
        for powers in itertools.product(range(3), repeat=len(box)):
            if sum(powers) > 2:
                continue
            # the squared error integrates the squared monomial, of degree <= 4
            exact = np.prod([(hi ** (2 * p + 1) - lo ** (2 * p + 1)) / (2 * p + 1)
                             for (lo, hi), p in zip(box, powers)])
            err = l2_error(st, lambda pts: np.prod(pts ** np.array(powers), axis=1), box)
            assert err**2 == pytest.approx(exact, rel=1e-13)

    def test_inactive_cells_contribute_exact_mass(self):
        mesh = build_structured_mesh("interval", (0, 1), 2)
        st = init_log_state(mesh, lambda pts: np.where(pts[:, 0] < 0.4, 0.0, 1.0), 2.0)
        # cells [0,0.5] has an inactive vertex: contributes int(exact^2)
        err = l2_error(st, lambda pts: np.full(len(pts), 2.0), (0, 0.5))
        assert err == pytest.approx(math.sqrt(0.5 * 4.0), rel=1e-12)

    def test_empty_region(self):
        mesh = build_structured_mesh("interval", (0, 1), 4)
        st = init_mixed_state(mesh, lambda pts: np.ones(len(pts)), 2.0, compute_edge_geometry(mesh))
        with pytest.raises(ValueError):
            l2_error(st, lambda pts: np.ones(len(pts)), (2.0, 3.0))


class TestConvergenceOrder:
    def test_exact_halving(self):
        assert convergence_order([0.1, 0.025])[1] == pytest.approx(2.0)

    def test_table_pattern(self):
        orders = convergence_order([4.53e-2, 2.27e-2])
        assert orders[1] == pytest.approx(0.997, abs=5e-3)

    def test_single_level(self):
        assert convergence_order([0.5]) == [None]

    def test_zero_error_reported_exact(self):
        assert convergence_order([0.1, 0.0])[1] is None


class TestRunSimulation:
    def test_record_count_exact_multiple(self):
        cfg = RunConfig(scheme="logdensity", problem="barenblatt1d", m=2.0,
                        dt=0.1, T=0.3, counts=(40,))
        _, records = run_simulation(cfg)
        assert [r.step for r in records] == [1, 2, 3]
        assert records[-1].time == pytest.approx(0.3)

    def test_partial_final_step(self):
        cfg = RunConfig(scheme="logdensity", problem="barenblatt1d", m=2.0,
                        dt=0.2, T=0.5, counts=(40,))
        state, records = run_simulation(cfg)
        assert len(records) == 3
        assert state.time == pytest.approx(0.5)

    def test_times_strictly_increasing(self):
        cfg = RunConfig(scheme="mixed", problem="barenblatt1d", m=2.0,
                        dt=0.05, T=0.25, counts=(50,))
        _, records = run_simulation(cfg)
        times = [r.time for r in records]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_waiting_tracked_node_starts_at_zero(self):
        problem = get_problem("waiting", 3.0)
        mesh = build_structured_mesh("interval", problem.domain, 200)
        idx = tracked_index(problem, mesh, "logdensity")
        assert mesh.vertices[idx, 0] == pytest.approx(np.pi / 2, abs=1e-12)
        st = init_log_state(mesh, problem.rho0, 3.0)
        assert st.density()[idx] == 0.0

    def test_mass_and_energy_columns(self):
        for scheme in ("logdensity", "mixed"):
            cfg = RunConfig(scheme=scheme, problem="barenblatt1d", m=2.0,
                            dt=0.05, T=0.25, counts=(60,))
            _, records = run_simulation(cfg)
            mass = [r.mass for r in records]
            assert max(abs(v / mass[0] - 1) for v in mass) < 1e-9
            energy = [r.energy for r in records]
            assert all(b <= a + 1e-10 for a, b in zip(energy, energy[1:]))

    def test_no_interface_oscillations(self):
        cfg = RunConfig(scheme="logdensity", problem="barenblatt1d", m=3.0,
                        dt=0.05, T=1.0, counts=(200,))
        _, records = run_simulation(cfg)
        assert all(r.min_density >= 0.0 for r in records)

    def test_cadence_thins_records(self):
        cfg = RunConfig(scheme="logdensity", problem="barenblatt1d", m=2.0,
                        dt=0.1, T=0.5, counts=(40,), cadence=2)
        _, records = run_simulation(cfg)
        assert [r.step for r in records] == [2, 4, 5]  # final step always recorded

    def test_cfl_autohalve_runs(self):
        cfg = RunConfig(scheme="mixed", problem="barenblatt1d", m=2.0,
                        dt=0.1, T=0.3, counts=(50,), cfl_autohalve=True)
        _, records = run_simulation(cfg)
        assert records[-1].time == pytest.approx(0.3)

    def test_graph_built_once_per_mesh(self, monkeypatch):
        built = []
        init = GraphOperator.__init__
        monkeypatch.setattr(GraphOperator, "__init__",
                            lambda self, *args, **kwargs: built.append(args[0]) or init(self, *args, **kwargs))
        for scheme in ("logdensity", "mixed"):
            cfg = RunConfig(scheme=scheme, problem="horseshoe", m=3.0, dt=1e-3, T=5e-3, counts=(8, 8))
            state, records = run_simulation(cfg)
            assert len(records) == 5
        mesh = state.mesh
        assert built == [mesh.n_vertices, mesh.n_cells]

    def test_only_mixed_runs_compute_edge_geometry(self, monkeypatch):
        calls = []
        real = harness.compute_edge_geometry
        monkeypatch.setattr(harness, "compute_edge_geometry", lambda mesh: calls.append(mesh) or real(mesh))
        # the edge variant rejects compactly supported data such as the horseshoe
        for problem, variant in (("horseshoe", "vertex"), ("gaussians", "edge")):
            cfg = RunConfig(scheme="logdensity", problem=problem, m=3.0, dt=1e-3, T=2e-3,
                            counts=(8, 8), variant=variant)
            run_simulation(cfg)
        assert calls == []
        state, _ = run_simulation(RunConfig(scheme="mixed", problem="horseshoe", m=3.0, dt=1e-3, T=2e-3,
                                            counts=(8, 8)))
        assert calls == [state.mesh]

    def test_solver_failure_carries_step_index(self):
        cfg = RunConfig(scheme="logdensity", problem="barenblatt1d", m=2.0,
                        dt=1e8, T=2e8, counts=(30,), newton_maxiter=2)
        with pytest.raises(RuntimeError, match="step 1"):
            run_simulation(cfg)

    def test_solver_and_mesh_failures_keep_their_type(self, monkeypatch):
        cfg = RunConfig(scheme="logdensity", problem="barenblatt1d", m=2.0,
                        dt=1e8, T=2e8, counts=(30,), newton_maxiter=2)
        with pytest.raises(SolverError, match=r"step 1 \(t=1e\+08\) failed") as info:
            run_simulation(cfg)
        assert type(info.value.__cause__) is SolverError
        cfg = RunConfig(scheme="mixed", problem="barenblatt1d", m=2.0, dt=0.1, T=0.3, counts=(30,))
        steps = []
        step = mx.step_mixed

        def failing_step(state, dt, max_iter):
            if steps:
                raise MeshError("bad face")
            steps.append(dt)
            return step(state, dt, max_iter)

        monkeypatch.setattr(mx, "step_mixed", failing_step)
        with pytest.raises(MeshError, match=r"step 2 \(t=0.2\) failed: bad face") as info:
            run_simulation(cfg)
        assert type(info.value.__cause__) is MeshError

    def test_other_failures_become_runtime_errors(self, monkeypatch):
        cfg = RunConfig(scheme="mixed", problem="barenblatt1d", m=2.0, dt=0.1, T=0.3, counts=(30,))
        monkeypatch.setattr(mx, "step_mixed", lambda *args: 1 / 0)
        with pytest.raises(RuntimeError, match="step 1") as info:
            run_simulation(cfg)
        assert type(info.value) is RuntimeError
        assert type(info.value.__cause__) is ZeroDivisionError

    def test_domain_override_2d(self, tmp_path):
        text = MINIMAL.replace("barenblatt1d", "barenblatt2d") + "domain = -4 4 -4 4\nn = 8x8\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.domain == ((-4.0, 4.0), (-4.0, 4.0))
        state, _ = run_simulation(cfg)
        assert state.mesh.volume == pytest.approx(64.0)


class TestCflGuard:
    def barenblatt_state(self):
        mesh = build_structured_mesh("interval", (-10, 10), 50)
        return init_mixed_state(mesh, get_problem("barenblatt1d", 2.0).rho0, 2.0, compute_edge_geometry(mesh))

    def test_violation_without_autohalve_is_logged(self, caplog):
        st = self.barenblatt_state()
        with caplog.at_level(logging.WARNING, logger="pmefem.harness"):
            _mixed_step_with_cfl(st, 1e-3, autohalve=False)
            assert not caplog.records
            new, bound = _mixed_step_with_cfl(st, 0.5, autohalve=False)
        assert bound == mx.cfl_max_dt(new)[1] < 0.5
        assert len(caplog.records) == 1
        assert "exceeds the post hoc CFL bound" in caplog.text

    def test_exhausted_halvings_raise(self, monkeypatch):
        st = self.barenblatt_state()
        steps = []
        step = mx.step_mixed
        monkeypatch.setattr(mx, "step_mixed", lambda *args: steps.append(args[1]) or step(*args))
        monkeypatch.setattr(mx, "cfl_max_dt", lambda state: (None, 1e-30))
        with pytest.raises(SolverError, match="20 halvings"):
            _mixed_step_with_cfl(st, 0.01, autohalve=True)
        assert steps == [0.01 / 2**k for k in range(21)]

    def test_bound_computed_once_per_step(self, monkeypatch):
        states = []
        cfl = mx.cfl_max_dt
        monkeypatch.setattr(mx, "cfl_max_dt", lambda state: states.append(state) or cfl(state))
        cfg = RunConfig(scheme="mixed", problem="barenblatt1d", m=2.0, dt=0.05, T=0.2, counts=(50,))
        final, records = run_simulation(cfg)
        assert len(states) == len(records) == 4
        assert states[-1] is final
        assert [r.cfl_bound for r in records] == [cfl(state)[1] for state in states]


class TestDeterminism:
    def test_identical_runs_identical_csv(self, tmp_path):
        cfg = RunConfig(scheme="mixed", problem="barenblatt1d", m=2.0,
                        dt=0.05, T=0.2, counts=(50,))
        blobs = []
        for tag in ("a", "b"):
            _, records = run_simulation(cfg)
            path = tmp_path / f"{tag}.csv"
            write_timeseries_csv(records, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestOutputs:
    def test_empty_timeseries_header_only(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_timeseries_csv([], path)
        assert path.read_text() == ("step,time,mass,energy,min_density,max_density,"
                                    "tracked_density,cfl_bound\n")

    def test_timeseries_blank_fields(self, tmp_path):
        cfg = RunConfig(scheme="logdensity", problem="barenblatt1d", m=2.0,
                        dt=0.1, T=0.2, counts=(40,))
        _, records = run_simulation(cfg)
        path = tmp_path / "ts.csv"
        write_timeseries_csv(records, path)
        line = path.read_text().splitlines()[1]
        assert line.endswith(",,")  # no tracked node, no CFL column for log-density

    def test_convergence_csv_row_count(self, tmp_path):
        rows = [ConvergenceRow(0, "100", 0.1, 1e-2, None, 2e-2, None),
                ConvergenceRow(1, "200", 0.05, 5e-3, 1.0, 1e-2, 1.0)]
        path = tmp_path / "conv.csv"
        write_convergence_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "level,N,dt,error_inner,order_inner,error_full,order_full"
        assert len(lines) == 3
        assert lines[1:] == ["0,100,0.10000000000000001,0.01,,0.02,",
                             "1,200,0.050000000000000003,0.0050000000000000001,1,0.01,1"]

    def test_vtk_two_line_cells(self, tmp_path):
        mesh = build_structured_mesh("interval", (0, 1), 2)
        st = init_mixed_state(mesh, lambda pts: np.ones(len(pts)), 2.0, compute_edge_geometry(mesh))
        path = tmp_path / "out.vtk"
        write_vtk(st, path)
        text = path.read_text().splitlines()
        assert text[0] == "# vtk DataFile Version 2.0"
        assert "DATASET UNSTRUCTURED_GRID" in text
        assert "CELLS 2 6" in text
        idx = text.index("CELL_TYPES 2")
        assert text[idx + 1] == "3" and text[idx + 2] == "3"  # VTK_LINE
        cd = text.index("CELL_DATA 2")
        assert "SCALARS density double" in text[cd + 1]
        assert "SCALARS potential double" in text

    def test_vtk_bytes_log_state(self, tmp_path):
        # one inactive vertex and one below the export floor of -50
        mesh = build_structured_mesh("triangle", ((0, 1), (0, 1)), (1, 1))
        st = init_log_state(mesh, lambda pts: np.array([1 / 3, 1e-30, 2.5, 0.0]), 2.0)
        write_vtk(st, tmp_path / "out.vtk", title="log state")
        assert (tmp_path / "out.vtk").read_bytes() == (
            b"# vtk DataFile Version 2.0\nlog state\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            b"POINTS 4 double\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n"
            b"CELLS 2 8\n3 0 1 3\n3 0 3 2\nCELL_TYPES 2\n5\n5\n"
            b"POINT_DATA 4\nSCALARS density double\nLOOKUP_TABLE default\n"
            b"0.33333333333333331\n1.0000000000000024e-30\n2.5\n0\n"
            b"SCALARS log_density double\nLOOKUP_TABLE default\n"
            b"-1.0986122886681098\n-50\n0.91629073187415511\n-50\n")

    def test_vtk_bytes_mixed_state(self, tmp_path):
        mesh = build_structured_mesh("interval", (0, 1), 2)
        st = init_mixed_state(mesh, lambda pts: np.array([1 / 3, 0.7]), 2.5, compute_edge_geometry(mesh))
        write_vtk(st, tmp_path / "out.vtk", title="mixed state")
        assert (tmp_path / "out.vtk").read_bytes() == (
            b"# vtk DataFile Version 2.0\nmixed state\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            b"POINTS 3 double\n0 0 0\n0.5 0 0\n1 0 0\n"
            b"CELLS 2 6\n2 0 1\n2 1 2\nCELL_TYPES 2\n3\n3\n"
            b"CELL_DATA 2\nSCALARS density double\nLOOKUP_TABLE default\n"
            b"0.33333333333333331\n0.69999999999999996\n"
            b"SCALARS potential double\nLOOKUP_TABLE default\n"
            b"0.32075014954979209\n0.97610336428975475\n")

    def test_vtk_point_data_for_log_states(self, tmp_path):
        mesh = build_structured_mesh("triangle", ((0, 1), (0, 1)), (2, 2))
        st = init_log_state(mesh, lambda pts: np.ones(len(pts)), 2.0)
        path = tmp_path / "out.vtk"
        write_vtk(st, path)
        text = path.read_text()
        assert f"POINT_DATA {mesh.n_vertices}" in text
        assert "SCALARS density double" in text
        assert "SCALARS log_density double" in text
        assert "CELL_TYPES" in text


# meshes whose vertex and cell arrays span more than one block of write_rows
MULTI_BLOCK = [("interval", (-1.3, 2.9), 5000),
               ("quad", ((-1.3, 2.9), (-0.7, 3.1)), (70, 60)),
               ("acute_triangle", ((-1.3, 2.9), (-0.7, 3.1)), (70, 64))]


def cap_density(pts):
    """A compactly supported cap covering part of the domain, so that some
    log-density vertices are inactive."""
    r2 = ((pts - 0.3) ** 2).sum(axis=1) / 1.7
    return np.maximum(1.0 - r2, 0.0) ** (2 / 3)


def multi_block_state(kind, box, counts, scheme):
    mesh = build_structured_mesh(kind, box, counts)
    if scheme == "logdensity":
        return init_log_state(mesh, cap_density, 2.5)
    return init_mixed_state(mesh, cap_density, 2.5, compute_edge_geometry(mesh))


def savetxt_vtk(state, title):
    """The VTK text of ``state`` written with np.savetxt on padded and
    stacked copies of its arrays: the reference for write_vtk."""
    mesh = state.mesh
    nloc = mesh.cells.shape[1]
    f = io.StringIO()
    f.write(f"# vtk DataFile Version 2.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
    f.write(f"POINTS {mesh.n_vertices} double\n")
    np.savetxt(f, np.pad(mesh.vertices, ((0, 0), (0, 3 - mesh.dim))), fmt="%.17g")
    f.write(f"CELLS {mesh.n_cells} {mesh.n_cells * (nloc + 1)}\n")
    np.savetxt(f, np.column_stack([np.full(mesh.n_cells, nloc), mesh.cells]), fmt="%d")
    f.write(f"CELL_TYPES {mesh.n_cells}\n")
    np.savetxt(f, np.full(mesh.n_cells, _VTK_CELL_TYPES[mesh.cell_kind]), fmt="%d")
    section, n, scalars = vtk_scalars(state)
    f.write(f"{section} {n}\n")
    for name, values in scalars.items():
        f.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
        np.savetxt(f, values, fmt="%.17g")
    return f.getvalue()


def vtk_scalars(state):
    """The data section, its size and the fields write_vtk should write."""
    if isinstance(state, mx.MixedState):
        return "CELL_DATA", state.mesh.n_cells, {"density": state.rho, "potential": state.potential()}
    floored = np.where(state.active, np.maximum(state.u, ld.LOG_FLOOR), ld.LOG_FLOOR)
    return "POINT_DATA", state.mesh.n_vertices, {"density": state.density(), "log_density": floored}


def parse_vtk(text):
    """Points, cells (with their size column), cell types, the data section
    and its scalar fields of a legacy ASCII VTK file, each block read by its
    header's count."""
    lines = text.split("\n")
    out, scalars, i = {}, {}, 0
    while i < len(lines):
        head = lines[i].split()
        if head and head[0] in ("POINTS", "CELLS", "CELL_TYPES"):
            n = int(head[1])
            rows = [line.split() for line in lines[i + 1:i + 1 + n]]
            out[head[0]] = np.array(rows, dtype=float if head[0] == "POINTS" else np.intp)
            i += n
        elif head and head[0] in ("POINT_DATA", "CELL_DATA"):
            out["section"], n_data = head[0], int(head[1])
        elif head and head[0] == "SCALARS":
            scalars[head[1]] = np.array(lines[i + 2:i + 2 + n_data], dtype=float)
            i += n_data + 1
        i += 1
    out["scalars"] = scalars
    return out


def assert_same_text(got, want):
    """Equal texts, or the first line that differs (pytest's own diff of two
    multi-megabyte strings takes minutes)."""
    same = got == want
    assert same, next((f"line {i}: {a!r} != {b!r}" for i, (a, b)
                       in enumerate(zip(got.split("\n"), want.split("\n"))) if a != b),
                      f"lengths {len(got)} != {len(want)}")


def bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.ascontiguousarray(a).tobytes() == b.tobytes()


class TestMultiBlockVtk:
    @pytest.mark.parametrize("scheme", ["logdensity", "mixed"])
    @pytest.mark.parametrize("kind,box,counts", MULTI_BLOCK)
    def test_bytes_and_values(self, tmp_path, kind, box, counts, scheme):
        st = multi_block_state(kind, box, counts, scheme)
        mesh = st.mesh
        assert min(mesh.n_vertices, mesh.n_cells) > ROW_BLOCK
        path = tmp_path / "out.vtk"
        write_vtk(st, path, title=f"{scheme} {kind}")
        text = path.read_text(encoding="utf-8")
        assert_same_text(text, savetxt_vtk(st, f"{scheme} {kind}"))

        vtk = parse_vtk(text)
        assert bitwise_equal(vtk["POINTS"][:, :mesh.dim], mesh.vertices)
        assert bitwise_equal(vtk["POINTS"][:, mesh.dim:], np.zeros((mesh.n_vertices, 3 - mesh.dim)))
        assert np.array_equal(vtk["CELLS"][:, 0], np.full(mesh.n_cells, mesh.cells.shape[1]))
        assert np.array_equal(vtk["CELLS"][:, 1:], mesh.cells)
        assert np.array_equal(vtk["CELL_TYPES"], np.full((mesh.n_cells, 1), _VTK_CELL_TYPES[mesh.cell_kind]))
        section, _, expected = vtk_scalars(st)
        assert vtk["section"] == section
        assert vtk["scalars"].keys() == expected.keys()
        for name, values in expected.items():
            assert bitwise_equal(vtk["scalars"][name], values)
        if scheme == "logdensity":
            assert not st.active.all()  # the floored field is exercised

    def test_peak_memory_bound(self, tmp_path):
        # the file is 3.1 MB; the writer formats one block of rows at a time
        mesh = build_structured_mesh("acute_triangle", ((-1, 1), (-1, 1)), (160, 160))
        st = init_log_state(mesh, get_problem("gaussians", 3.0).rho0, 3.0)
        path = tmp_path / "out.vtk"
        tracemalloc.start()
        try:
            write_vtk(st, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 3_000_000
        # the two nodal fields (0.21 MB each) and one block of text; a third
        # whole-array temporary alive at once takes the peak to 0.63 MB
        assert peak < 560_000


class TestRunConvergence:
    def test_rows_and_monotone_errors(self):
        cfg = RunConfig(scheme="mixed", problem="barenblatt1d", m=2.0,
                        dt=0.1, T=0.5, counts=(50,), levels=2)
        rows = run_convergence(cfg)
        assert len(rows) == 2
        assert rows[0].order_inner is None
        assert rows[1].error_inner < rows[0].error_inner
        assert rows[1].N == "100"

    @pytest.mark.parametrize("domain", ["20 30", "5 10", "-30 -5", "4.9 10"])
    def test_domain_missing_inner_region_rejected_before_any_level(self, tmp_path, capsys, monkeypatch, domain):
        runs = []
        monkeypatch.setattr(harness, "run_simulation", lambda cfg: runs.append(cfg))
        text = MINIMAL.replace("scheme = logdensity", "scheme = mixed") + f"n = 10\ndomain = {domain}\n"
        assert cli.main(["converge", str(write_cfg(tmp_path, text)), "-o", "levels=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: domain (") and "inner region (-5.0, 5.0)" in err
        assert runs == []

    def test_domain_overlapping_inner_region_runs(self):
        cfg = RunConfig(scheme="mixed", problem="barenblatt1d", m=2.0, dt=0.1, T=0.2,
                        counts=(20,), domain=(-6.0, 4.0), levels=1)
        assert len(run_convergence(cfg)) == 1

    def test_no_exact_solution_rejected(self):
        cfg = RunConfig(scheme="logdensity", problem="gaussians", m=3.0,
                        dt=0.01, T=0.02)
        with pytest.raises(ConfigError):
            run_convergence(cfg)


class TestCli:
    def test_simulate_and_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, minimal(output=f"{tmp_path}/run", n=40, T=0.4))
        assert cli.main(["simulate", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "mass=" in out
        assert (tmp_path / "run_timeseries.csv").exists()
        assert (tmp_path / "run_final.vtk").exists()

    def test_simulate_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL)
        assert cli.main(["simulate", str(cfg), "--set", "T=0.2", "-o", "n=30"]) == 0
        assert "steps=1" in capsys.readouterr().out

    def test_converge(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, minimal(scheme="mixed", dt=0.1, n=50, T=0.5))
        assert cli.main(["converge", str(cfg), "-o", "levels=2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("level,N,dt")
        assert len(out) == 3

    def test_converge_writes_the_returned_rows(self, tmp_path, capsys, monkeypatch):
        rows = []
        study = harness.run_convergence
        monkeypatch.setattr(harness, "run_convergence", lambda cfg: rows.extend(study(cfg)) or rows)
        cfg = write_cfg(tmp_path, minimal(scheme="mixed", dt=0.1, n=50, T=0.5, levels=2, output=f"{tmp_path}/study"))
        assert cli.main(["converge", str(cfg)]) == 0
        assert capsys.readouterr().out.endswith(f"wrote {tmp_path}/study_convergence.csv\n")
        assert len(rows) == 2
        write_convergence_csv(rows, tmp_path / "reference.csv")
        assert (tmp_path / "study_convergence.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_override_without_equals_sign(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL)
        assert cli.main(["simulate", str(cfg), "-o", "levels"]) == 2
        assert capsys.readouterr().err == "error: override 'levels' must look like key=value\n"

    def test_mesh_info(self, tmp_path, capsys):
        mesh = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (3, 3))
        path = tmp_path / "m.txt"
        write_mesh(mesh, path)
        assert cli.main(["mesh-info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "strict_delaunay=True" in out

    @pytest.mark.parametrize("command", ["simulate", "converge"])
    def test_missing_output_directory_rejected_before_any_step(self, tmp_path, capsys, monkeypatch, command):
        def no_step(*args):
            raise AssertionError("a step ran")
        monkeypatch.setattr(ld, "step_logdensity", no_step)
        missing = tmp_path / "no" / "such"
        cfg = write_cfg(tmp_path, MINIMAL + f"levels = 2\noutput = {missing}/run\n")
        assert cli.main([command, str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: output directory {str(missing)!r} does not exist\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_output_in_current_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, MINIMAL + "output = run\n")
        assert cli.main(["simulate", str(cfg)]) == 0
        assert (tmp_path / "run_final.vtk").exists()

    def test_bad_config_is_reported(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scheme = warp\n")
        assert cli.main(["simulate", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_solver_failure_is_reported(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, minimal(dt="1e8", T="2e8", newton_maxiter=2))
        assert cli.main(["simulate", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: step 1")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,message", [
        ("2 one 3 triangle\n", "mesh header"),
        ("1 0 2 interval\n", "mesh header"),
        ("1 2 3 interval\n0\n1\n", "vertex block must be 3 rows of 1 numbers"),
        ("1 2 3 interval\n0\n1\n2\n0 1\n", "cell block must be 2 rows of 2 numbers"),
        ("2 1 3 triangle\n0 0\n1\n0 1\n0 1 2\n", "bad vertex block"),
        ("2 1 3 triangle\n0 0\n1 0\n0 1\n0 1\n", "cell block must be 1 rows of 3 numbers"),
        ("1 1 2 interval\n0\nx\n0 1\n", "bad vertex block"),
        ("1 1 2 interval\n0\n1\n0 1.5\n", "bad cell block"),
        ("1 1 2 interval\n0\n1\n0 1\n1 0\n", "1 extra row(s) after the header's 2 vertices and 1 cells"),
    ])
    def test_malformed_mesh_file_is_reported(self, tmp_path, capsys, text, message):
        path = tmp_path / "m.txt"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["mesh-info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_bad_mesh_file_is_reported(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("2 1 3 hexagon\n", encoding="utf-8")
        assert cli.main(["mesh-info", str(path)]) == 2
        assert capsys.readouterr().err == "error: unknown cell kind 'hexagon'\n"
