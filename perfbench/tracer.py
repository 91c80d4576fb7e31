"""Span tracing of the program from the outside.

`Tracer.install` replaces selected functions of fucik_branch with timing
wrappers, in every module namespace the function is looked up from (modules
import each other's names with `from .x import f`, so each importing module
holds its own reference). Each call records a span: name, start, end, parent
span and an optional work figure (nodes solved, bytes built). Spans live in
compact arrays in memory until the run ends.
`layer_metrics` turns them into the per-layer figures.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

# (module, attribute, span name, work function of the call's arguments)
# Every module that looks a traced name up is listed, so no call escapes.
TARGETS = [
    ("grid", "thomas_solve", "tridiag.thomas", "nodes"),
    ("halfeig", "thomas_solve", "tridiag.thomas", "nodes"),
    ("quasilinear", "thomas_solve", "tridiag.thomas", "nodes"),
    ("spectrum", "thomas_solve", "tridiag.thomas", "nodes"),
    ("halfeig", "dual_norm", "grid.dual_norm", None),
    ("quasilinear", "dual_norm", "grid.dual_norm", None),
    ("monotone", "dual_norm", "grid.dual_norm", None),
    ("halfeig", "eigenpair", "spectrum.eigenpair", None),
    ("continuation", "eigenpair", "spectrum.eigenpair", None),
    ("cli", "eigenpair", "spectrum.eigenpair", None),
    ("halfeig", "_shoot", "halfeig.shoot", None),
    ("halfeig", "shoot_split_lambda", "halfeig.shoot_split", None),
    ("halfeig", "_discrete_half_eigen", "halfeig.refine", None),
    ("continuation", "split_eigenvalues", "halfeig.split", None),
    ("cli", "split_eigenvalues", "halfeig.split", None),
    ("cli", "fucik_curve_points", "halfeig.fucik_sweep", None),
    ("continuation", "residual_original", "quasilinear.residual", None),
    ("continuation", "residual_transformed", "quasilinear.residual", None),
    ("monotone", "residual_original", "quasilinear.residual", None),
    ("monotone", "residual_transformed", "quasilinear.residual", None),
    ("continuation", "jacobian_original", "quasilinear.jacobian", None),
    ("continuation", "jacobian_transformed", "quasilinear.jacobian", None),
    ("monotone", "jacobian_original", "quasilinear.jacobian", None),
    ("monotone", "jacobian_transformed", "quasilinear.jacobian", None),
    ("quasilinear.Jacobian", "as_matrix", "quasilinear.as_matrix", "dense_bytes"),
    ("quasilinear.Jacobian", "solve_values", "quasilinear.jacobian_solve", None),
    ("monotone", "energy", "quasilinear.energy", None),
    ("monotone", "solve_monotone", "monotone.solve", None),
    ("monotone", "solve_monotone_ball", "monotone.solve", None),
    ("continuation", "solve_monotone", "monotone.solve", None),
    ("continuation", "solve_monotone_ball", "monotone.solve", None),
    ("monotone", "default_ball_radius", "monotone.ball_radius", None),
    ("cli", "monotonicity_sweep", "monotone.sweep", None),
    ("cli", "check_vector_inequalities", "monotone.inequalities", None),
    ("cli", "trace_branch", "continuation.trace", None),
    ("continuation", "_corrector", "continuation.corrector", None),
    ("continuation", "_trivial_candidates", "continuation.trivial_candidates", None),
    ("cli", "run", "cli.run", None),
    ("cli", "_write_table", "cli.write", None),
    ("cli", "_write_json", "cli.write", None),
    ("cli", "write_field_csv", "cli.write", None),
]

LAYERS = ("bench", "cli", "continuation", "halfeig", "spectrum", "monotone",
          "quasilinear", "grid", "tridiag")


def _nodes(args, kwargs) -> float:
    return float(len(args[1]))          # thomas_solve(lower, diag, upper, rhs)


def _dense_bytes(args, kwargs) -> float:
    n = args[0].diag.size               # Jacobian.as_matrix(self)
    return 8.0 * n * n


_WORK = {"nodes": _nodes, "dense_bytes": _dense_bytes}


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, work=None):
        nid = self._id(name)
        stack, clock = self._stack, time.perf_counter
        name_id, parent, start, end, work_out = (
            self.name_id, self.parent, self.start, self.end, self.work)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            work_out.append(work(args, kwargs) if work is not None else 0.0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    def install(self, package) -> None:
        """Wrap every TARGETS entry inside the given fucik_branch package."""
        for where, attr, name, work in TARGETS:
            obj = package
            for part in where.split("."):
                obj = getattr(obj, part)
            original = obj.__dict__[attr]
            self._patched.append((obj, attr, original))
            setattr(obj, attr, self.wrap(name, original, _WORK.get(work)))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of benchmark code."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work.append(0.0)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy views of the record buffers; take them once tracing is over."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "work": np.frombuffer(self.work, dtype=np.float64),
        }

def _under(is_anc: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Spans that are, or descend from, a span flagged in is_anc.

    Parents are recorded before their children, so each pass pushes the
    flag one level down; the loop ends when a pass changes nothing.
    """
    flag = is_anc.copy()
    has = parent >= 0
    idx = np.nonzero(has)[0]
    while True:
        new = flag.copy()
        new[idx] |= flag[parent[idx]]
        if np.array_equal(new, flag):
            return flag
        flag = new


def layer_metrics(spans: dict[str, np.ndarray], rounds: int,
                  points: float, solves: float) -> tuple[dict, dict]:
    """Per-layer figures per traced round, and self seconds per layer.

    points is the number of accepted branch points and solves the number of
    manufactured monotone solves over all traced rounds; both are counted
    from the program's outputs, not from inside it.
    """
    names = [str(nm) for nm in spans["names"]]
    nid, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    work = spans["work"]
    n_spans = dur.size
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=n_spans)
    self_t = dur - child
    layer_of_name = np.array([LAYERS.index(nm.split(".")[0]) for nm in names], dtype=int)
    layer = layer_of_name[nid] if n_spans else np.zeros(0, dtype=int)
    # inclusive time counts only the outermost span of a name (no nesting twice)
    outer = np.ones(n_spans, dtype=bool)
    outer[has] = nid[parent[has]] != nid[has]

    def mask(name: str) -> np.ndarray:
        return nid == names.index(name) if name in names else np.zeros(n_spans, dtype=bool)

    def calls(name: str) -> float:
        return float(np.count_nonzero(mask(name))) / rounds

    def secs(name: str) -> float:
        return float(dur[mask(name) & outer].sum()) / rounds

    def under(name: str, inner: str) -> float:
        return float(np.count_nonzero(_under(mask(name), parent) & mask(inner)))

    def layer_self(name: str) -> float:
        return float(self_t[layer == LAYERS.index(name)].sum()) / rounds

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    thomas = mask("tridiag.thomas")
    solve_jacs = under("monotone.solve", "quasilinear.jacobian")
    m = {
        "tridiag.thomas.calls": (calls("tridiag.thomas"), "count"),
        "tridiag.thomas.s": (secs("tridiag.thomas"), "s"),
        "tridiag.thomas.ns_per_node": (
            ratio(float(dur[thomas].sum()), float(work[thomas].sum())) * 1e9, "ns"),
        "grid.dual_norm.calls": (calls("grid.dual_norm"), "count"),
        "grid.dual_norm.s": (secs("grid.dual_norm"), "s"),
        "spectrum.eigenpair.calls": (calls("spectrum.eigenpair"), "count"),
        "spectrum.eigenpair.s": (secs("spectrum.eigenpair"), "s"),
        "halfeig.shoot.calls": (calls("halfeig.shoot"), "count"),
        "halfeig.shoot.s": (secs("halfeig.shoot"), "s"),
        "halfeig.fucik_sweep.s": (secs("halfeig.fucik_sweep"), "s"),
        "halfeig.split.calls": (calls("halfeig.split"), "count"),
        "halfeig.split.s": (secs("halfeig.split"), "s"),
        "halfeig.refine.s": (secs("halfeig.refine"), "s"),
        "halfeig.refine.solves": (
            under("halfeig.refine", "tridiag.thomas") / rounds, "count"),
        "quasilinear.residual.calls": (calls("quasilinear.residual"), "count"),
        "quasilinear.residual.s": (secs("quasilinear.residual"), "s"),
        "quasilinear.jacobian.calls": (calls("quasilinear.jacobian"), "count"),
        "quasilinear.jacobian.s": (secs("quasilinear.jacobian"), "s"),
        "quasilinear.as_matrix.calls": (calls("quasilinear.as_matrix"), "count"),
        "quasilinear.as_matrix.s": (secs("quasilinear.as_matrix"), "s"),
        "quasilinear.as_matrix.bytes": (
            float(work[mask("quasilinear.as_matrix")].sum()) / rounds, "B"),
        "quasilinear.jacobian_solve.calls": (calls("quasilinear.jacobian_solve"), "count"),
        "quasilinear.jacobian_solve.s": (secs("quasilinear.jacobian_solve"), "s"),
        "quasilinear.energy.calls": (calls("quasilinear.energy"), "count"),
        "quasilinear.energy.s": (secs("quasilinear.energy"), "s"),
        "monotone.solve.calls": (calls("monotone.solve"), "count"),
        "monotone.solve.s": (secs("monotone.solve"), "s"),
        "monotone.newton_iters": (ratio(solve_jacs, solves), "iter/solve"),
        "monotone.residuals_per_iter": (
            ratio(under("monotone.solve", "quasilinear.residual"), solve_jacs),
            "count/iter"),
        "monotone.ball_radius.s": (secs("monotone.ball_radius"), "s"),
        "monotone.sweep.s": (secs("monotone.sweep"), "s"),
        "monotone.inequalities.s": (secs("monotone.inequalities"), "s"),
        "continuation.trace.s": (secs("continuation.trace"), "s"),
        "continuation.points": (points / rounds, "count"),
        "continuation.jacobians_per_point": (
            ratio(under("continuation.trace", "quasilinear.jacobian"), points),
            "count/point"),
        "continuation.residuals_per_point": (
            ratio(under("continuation.trace", "quasilinear.residual"), points),
            "count/point"),
        "cli.write.s": (secs("cli.write"), "s"),
    }
    self_by_layer = {name: layer_self(name) for name in LAYERS}
    for name in LAYERS:
        m[f"{name}.self_s"] = (self_by_layer[name], "s")
    return m, self_by_layer
