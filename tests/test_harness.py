"""Config parsing, error norms, simulation records, file formats, CLI."""

import itertools
import logging
import math

import numpy as np
import pytest

from pmefem import cli
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
    _mixed_step_with_cfl,
)
from pmefem.mesh import DELAUNAY_TOL, MeshError, build_structured_mesh, write_mesh
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

    def test_autohalve_is_mixed_only(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, MINIMAL + "cfl_autohalve = true\n"))
        with pytest.raises(ConfigError, match="mixed scheme only"):
            parse_config(write_cfg(tmp_path, MINIMAL), {"cfl_autohalve": "false"})

    @pytest.mark.parametrize("scheme,iterations", [("logdensity", 3), ("mixed", 4)])
    def test_newton_maxiter_reaches_both_schemes(self, tmp_path, capsys, scheme, iterations):
        # log-density: newton_maxiter iterations and a polishing one;
        # mixed: newton_maxiter full and newton_maxiter halved iterations
        text = MINIMAL.replace("logdensity", scheme) + "m = 3\ndt = 0.1\nT = 0.1\nn = 30\nnewton_maxiter = 2\n"
        assert cli.main(["simulate", str(write_cfg(tmp_path, text))]) == 2
        assert f"Newton did not converge in {iterations} iterations" in capsys.readouterr().err

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
        st = init_mixed_state(mesh, lambda pts: np.ones(len(pts)), 2.0)
        assert l2_error(st, lambda pts: np.ones(len(pts)), ((0, 1), (0, 1))) == 0.0

    def test_unit_mismatch_on_unit_square(self):
        mesh = build_structured_mesh("quad", ((0, 1), (0, 1)), (4, 4))
        st = init_mixed_state(mesh, lambda pts: np.ones(len(pts)), 2.0)
        err = l2_error(st, lambda pts: np.zeros(len(pts)), ((0, 1), (0, 1)))
        assert err == pytest.approx(1.0, rel=1e-12)

    def test_p0_linear_exact(self):
        mesh = build_structured_mesh("interval", (0, 1), 1)
        st = init_mixed_state(mesh, lambda pts: np.full(len(pts), 0.5), 2.0)
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
        st = init_mixed_state(mesh, lambda pts: np.ones(len(pts)), 2.0)
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
        return init_mixed_state(mesh, get_problem("barenblatt1d", 2.0).rho0, 2.0)

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

    def test_vtk_two_line_cells(self, tmp_path):
        mesh = build_structured_mesh("interval", (0, 1), 2)
        st = init_mixed_state(mesh, lambda pts: np.ones(len(pts)), 2.0)
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
        st = init_mixed_state(mesh, lambda pts: np.array([1 / 3, 0.7]), 2.5)
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


class TestRunConvergence:
    def test_rows_and_monotone_errors(self):
        cfg = RunConfig(scheme="mixed", problem="barenblatt1d", m=2.0,
                        dt=0.1, T=0.5, counts=(50,), levels=2)
        rows = run_convergence(cfg)
        assert len(rows) == 2
        assert rows[0].order_inner is None
        assert rows[1].error_inner < rows[0].error_inner
        assert rows[1].N == "100"

    def test_no_exact_solution_rejected(self):
        cfg = RunConfig(scheme="logdensity", problem="gaussians", m=3.0,
                        dt=0.01, T=0.02)
        with pytest.raises(ConfigError):
            run_convergence(cfg)


class TestCli:
    def test_simulate_and_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL + f"output = {tmp_path}/run\nn = 40\nT = 0.4\n")
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
        text = MINIMAL.replace("scheme = logdensity", "scheme = mixed")
        cfg = write_cfg(tmp_path, text + "dt = 0.1\nn = 50\nT = 0.5\n")
        assert cli.main(["converge", str(cfg), "--levels", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("level,N,dt")
        assert len(out) == 3

    def test_mesh_info(self, tmp_path, capsys):
        mesh = build_structured_mesh("acute_triangle", ((0, 1), (0, 1)), (3, 3))
        path = tmp_path / "m.txt"
        write_mesh(mesh, path)
        assert cli.main(["mesh-info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "strict_delaunay=True" in out

    def test_bad_config_is_reported(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scheme = warp\n")
        assert cli.main(["simulate", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_solver_failure_is_reported(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL + "dt = 1e8\nT = 2e8\nnewton_maxiter = 2\n")
        assert cli.main(["simulate", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: step 1")
        assert "Traceback" not in err

    def test_bad_mesh_file_is_reported(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("2 1 3 hexagon\n", encoding="utf-8")
        assert cli.main(["mesh-info", str(path)]) == 2
        assert capsys.readouterr().err == "error: unknown cell kind 'hexagon'\n"
