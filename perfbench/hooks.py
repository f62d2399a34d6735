"""Hooks that the benchmark installs around pmefem's public calls.

Every hook replaces a module attribute that pmefem looks up at call time
(`harness.run_simulation`, `logdensity.spd_solve`, ...), so nothing under
`src/` changes.  Two kinds are installed:

* `Probe` is always on.  It holds the few coarse timers behind `setup_s` and
  `march_s`, keeps references to each run's initial state and results for the
  correctness checks, and records failures with their chained cause.
* `Tracer` is on only in traced runs.  It records one span per call (name,
  start, end, parent span, thread), counts a few events, and derives
  per-layer self times from the spans once the run is over.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import Counter, defaultdict

from pmefem import harness
from pmefem import logdensity as ld
from pmefem import mixed as mx

clock = time.perf_counter


def error_info(exc):
    """Type and message of an exception and of its chained cause;
    `run_simulation` re-wraps every failure as RuntimeError, so the cause
    is what tells a SolverError apart."""
    cause = exc.__cause__
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "cause_type": None if cause is None else type(cause).__name__,
        "cause_message": None if cause is None else str(cause),
    }


class Probe:
    """Per-run coarse timers and captured results.

    A run is one `run_simulation` call: a simulation, or one level of a
    refinement study (those run on the pool threads of `run_convergence`).
    Set-up is the time from entering `run_simulation` to its first step.
    """

    def __init__(self):
        self.runs = []            # one dict per run_simulation call
        self.harness_calls = []   # seconds of each harness run call made by the CLI
        self._local = threading.local()

    def install(self):
        run_simulation = harness.run_simulation
        run_convergence = harness.run_convergence

        def timed_run_simulation(cfg):
            run = {"cfg": cfg, "start": clock(), "first_step": None, "end": None,
                   "error": None, "initial": None, "result": None, "support_shrinks": 0}
            outer = getattr(self._local, "run", None)
            self._local.run = run
            self.runs.append(run)
            try:
                run["result"] = run_simulation(cfg)
            except Exception as exc:
                run["error"] = error_info(exc)
                raise
            finally:
                run["end"] = clock()
                self._local.run = outer
                if outer is None and threading.current_thread() is threading.main_thread():
                    self.harness_calls.append(run["end"] - run["start"])
            return run["result"]

        def timed_run_convergence(*args, **kwargs):
            t0 = clock()
            try:
                return run_convergence(*args, **kwargs)
            finally:
                self.harness_calls.append(clock() - t0)

        harness.run_simulation = timed_run_simulation
        harness.run_convergence = timed_run_convergence
        self._capture_initial(ld, "init_log_state")
        self._capture_initial(mx, "init_mixed_state")
        self._mark_steps(ld, "step_logdensity", check_support=True)
        self._mark_steps(mx, "step_mixed", check_support=False)

    def _capture_initial(self, module, name):
        fn = getattr(module, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = fn(*args, **kwargs)
            run = getattr(self._local, "run", None)
            if run is not None:
                run["initial"] = state   # states are frozen; keeping a reference costs nothing
            return state

        setattr(module, name, wrapper)

    def _mark_steps(self, module, name, check_support):
        fn = getattr(module, name)

        @functools.wraps(fn)
        def wrapper(state, *args, **kwargs):
            run = getattr(self._local, "run", None)
            if run is not None and run["first_step"] is None:
                run["first_step"] = clock()
            new = fn(state, *args, **kwargs)
            if check_support and run is not None and (state.active & ~new.active).any():
                run["support_shrinks"] += 1
            return new

        setattr(module, name, wrapper)

    def setup_seconds(self):
        """Set-up time summed over every run (every level of a study)."""
        return sum((r["first_step"] or r["end"]) - r["start"] for r in self.runs)

    def harness_seconds(self):
        return sum(self.harness_calls)


# (owner, attribute, span name) of every traced call site
SPAN_SITES = (
    (harness, "run_simulation", "harness.run"),
    (harness, "run_convergence", "harness.converge"),
    (harness, "build_structured_mesh", "mesh.build"),
    (harness, "compute_edge_geometry", "mesh.geometry"),
    (ld, "init_log_state", "logdensity.init"),
    (mx, "init_mixed_state", "mixed.init"),
    (ld, "step_logdensity", "logdensity.step"),
    (ld, "newton_update", "logdensity.newton"),
    (ld, "stiffness_edge_based", "assembly.stiffness"),
    (ld, "stiffness_vertex_quadrature", "assembly.stiffness"),
    (ld, "spd_solve", "assembly.spd_solve"),
    (mx, "step_mixed", "mixed.step"),
    (mx, "spsolve", "mixed.spsolve"),
    (mx, "cfl_max_dt", "mixed.cfl"),
    (harness, "_record", "harness.record"),
    (harness, "l2_error", "harness.l2_error"),
    (harness, "write_timeseries_csv", "harness.write"),
    (harness, "write_vtk", "harness.write"),
    (harness, "write_convergence_csv", "harness.write"),
)


def _file_size(args, kwargs):
    return os.path.getsize(args[1]) if os.path.exists(args[1]) else 0


# span size: dofs of a solve, bytes of a written file
_SIZES = {
    "assembly.spd_solve": lambda args, kwargs: len(args[2]),
    "harness.write": _file_size,
}


class Tracer:
    """In-memory spans around the calls in SPAN_SITES.

    A span is (id, name, parent id, thread id, start, end, size).  The parent
    is the innermost open span on the same thread; a span opened on a pool
    thread with nothing open there takes the innermost open span of the main
    thread as its parent (the call that is waiting for it), but it does not
    count against that parent's self time, which covers one thread only.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += n

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            size_of = _SIZES.get(name)
            size = size_of(args, kwargs) if size_of else 0
            self.spans.append((sid, name, parent, threading.get_ident(), start, end, size))

    def install(self):
        for owner, attr, name in SPAN_SITES:
            fn = getattr(owner, attr)
            setattr(owner, attr, functools.wraps(fn)(functools.partial(self.call, name, fn)))

        newton = ld.newton_update

        @functools.wraps(newton)
        def counted_newton(system, u, active):
            u_next, act = newton(system, u, active)
            self.count("logdensity.activated", int((act & ~active).sum()))
            self.count("logdensity.deactivated", int((active & ~act).sum()))
            return u_next, act

        ld.newton_update = counted_newton

        functional = ld.StepSystem.functional

        @functools.wraps(functional)
        def counted_functional(system, u, active):
            self.count("logdensity.functional_evals")
            return functional(system, u, active)

        ld.StepSystem.functional = counted_functional

    def to_json(self):
        keys = ("id", "name", "parent", "thread", "start", "end", "size")
        return [dict(zip(keys, s)) for s in self.spans]

    def layer_metrics(self):
        """Per-layer totals: self time is a span's duration less the time
        covered by its child spans on the same thread."""
        thread_of = {s[0]: s[3] for s in self.spans}
        covered = defaultdict(float)
        newton_children = Counter()
        for sid, name, parent, thread, start, end, _ in self.spans:
            if parent is not None and thread_of.get(parent) == thread:
                covered[parent] += end - start
                if name == "logdensity.newton":
                    newton_children[parent] += 1
        total, self_time, calls, size = Counter(), Counter(), Counter(), Counter()
        for sid, name, parent, thread, start, end, n in self.spans:
            total[name] += end - start
            self_time[name] += end - start - covered[sid]
            calls[name] += 1
            size[name] += n
        step_ids = [s[0] for s in self.spans if s[1] == "logdensity.step"]
        c = self.counts
        return {
            "mesh.build_s": self_time["mesh.build"],
            "mesh.geometry_s": self_time["mesh.geometry"],
            "logdensity.init_s": self_time["logdensity.init"],
            "mixed.init_s": self_time["mixed.init"],
            "assembly.stiffness_s": self_time["assembly.stiffness"],
            "assembly.stiffness_calls": calls["assembly.stiffness"],
            "assembly.spd_solve_s": self_time["assembly.spd_solve"],
            "assembly.spd_solve_calls": calls["assembly.spd_solve"],
            "assembly.spd_solve_mean_dofs": (size["assembly.spd_solve"] / calls["assembly.spd_solve"]
                                             if calls["assembly.spd_solve"] else 0.0),
            "logdensity.step_s": total["logdensity.step"],
            "logdensity.step_self_s": self_time["logdensity.step"],
            "logdensity.steps": calls["logdensity.step"],
            "logdensity.newton_iters": calls["logdensity.newton"],
            "logdensity.newton_iters_per_step_max": max((newton_children[i] for i in step_ids), default=0),
            "logdensity.newton_self_s": self_time["logdensity.newton"],
            "logdensity.functional_evals": c["logdensity.functional_evals"],
            "logdensity.activated": c["logdensity.activated"],
            "logdensity.deactivated": c["logdensity.deactivated"],
            "mixed.step_s": total["mixed.step"],
            "mixed.steps": calls["mixed.step"],
            "mixed.newton_iters": calls["mixed.spsolve"],
            "mixed.spsolve_s": self_time["mixed.spsolve"],
            "mixed.step_self_s": self_time["mixed.step"],
            "mixed.cfl_s": self_time["mixed.cfl"],
            "harness.record_s": self_time["harness.record"],
            "harness.level_busy_s": total["harness.run"],
            "harness.run_self_s": self_time["harness.run"],
            "harness.l2_error_s": self_time["harness.l2_error"],
            "harness.write_s": self_time["harness.write"],
            "harness.write_bytes": size["harness.write"],
            "cli.self_s": self_time["cli"],
        }

