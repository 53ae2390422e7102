"""The four benchmark workloads.

Every workload is one closed loop in a single process: it runs whole
rounds of the same operations, the next only after the last completed,
until the run's seconds are used.  Each operation is timed on its own, in
reference seconds (see timing.py); a round's time is the sum over its
operations of each one's median over the rounds.  Outputs are checked
after the loop, outside the timed operations.
"""

import hashlib
import os
import statistics
import sys
import warnings
from pathlib import Path

import numpy as np

import checks
import setup_probe
import tracing
from timing import ALL_CPUS, OUT, run_rounds, self_rss_mib, spawn, timing_note

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The export workloads: wigner-cyl arguments and thread setting.  The
#: axes are the command's defaults except for the number of r nodes over
#: the same range, cut so that one export takes about a second or two and
#: a run holds many (see README).
EXPORT_AXES = {"r_min": 1e-3, "r_max": 6.0, "nphi": 64, "lmax": 5}
EXPORTS = {
    "export-superposition": {"spec": "superposition l1=3 l2=-3 phi0=0 Nmax=9", "nr": 4,
                             "format": "csv", "threads": None, "harmonics": {0, 6}},
    "export-eigenstate-json": {"spec": "eigenstate N=2 l0=0", "nr": 8,
                               "format": "json", "threads": "2", "harmonics": {0}},
}
#: Grid points sampled per run and checked against the mpmath reference.
EXPORT_REF_POINTS = 6

#: marginals-summed: radial nodes at the midpoints of equal cells of this
#: range, and angle-OAM curve samples at ell = 0.  The radial nodes do not
#: move with the seed: their ell_max and retries set the cost of a round,
#: and a seed should change the inputs, not the amount of work.
RADIAL_RANGE = (0.15, 6.2)
RADIAL_NODES = 24
ANGLE_SAMPLES = 16
#: The ell_max-widening retry of marginal_radial callers.
RADIAL_ELL_START = (3, 5.5, 3)  # max(a, int(b r) + c)
RADIAL_ELL_STEP = 4
RADIAL_ELL_CAP = 80

#: crosscheck: points per state family, and the drawing ranges.
CROSS_POINTS = 4
CROSS_R = (0.5, 2.2)
CROSS_ELL = 3
FAMILIES = [spec for spec, rule in setup_probe.SETUP["crosscheck"] if rule == "oracle"]
VACUUM = FAMILIES[0]
#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 9
#: Every workload, in the order ``--workload all`` runs them.
NAMES = (*EXPORTS, *setup_probe.SETUP)
PROBE_FAULT = ("cancellation in the contour-shifted Gauss-Hermite sum for Nmax >= 30 "
               "(roadmap accuracy item): wrong values, no error raised")


class Outcome:
    """Counts, problems and metrics of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []
        self.metrics = {}

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}


# ---------------------------------------------------------------- exports

def _export_argv(name, out_path, grid=None):
    """wigner-cyl arguments; ``grid`` = (nr, nphi, lmax) replaces the workload's."""
    w = EXPORTS[name]
    a = EXPORT_AXES
    nr, nphi, lmax = grid or (w["nr"], a["nphi"], a["lmax"])
    return ["wigner-cyl", "--state", w["spec"], "--r-min", repr(a["r_min"]),
            "--r-max", repr(a["r_max"]), "--nr", str(nr), "--nphi", str(nphi),
            "--lmax", str(lmax), "--format", w["format"], "--out", str(out_path)]


def _export_env(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("OAM_WIGNER_THREADS", None)
    if EXPORTS[name]["threads"] is not None:
        env["OAM_WIGNER_THREADS"] = EXPORTS[name]["threads"]
    return env


def _export_cpus(name):
    # a child with a thread pool gets every CPU back
    return ALL_CPUS if EXPORTS[name]["threads"] else None


def _export_op(name, path, trace_path=None):
    argv = _export_argv(name, path)
    if trace_path is None:
        cmd = [sys.executable, "-m", "cylwigner.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_path), *argv]
    return lambda: spawn(cmd, _export_env(name), _export_cpus(name))


def _setup_command(name, out_path):
    """Command, environment and CPUs of one set-up probe of ``name``.

    An export's set-up is the wigner-cyl process itself on a one-point
    grid: interpreter start, import, parsing, the command's own builds of
    the state and rule, one point and the write.  An in-process workload's
    is setup_probe.py, which builds what its operations are handed.
    """
    if name in EXPORTS:
        cmd = [sys.executable, "-m", "cylwigner.cli", *_export_argv(name, out_path, (1, 1, 0))]
        return cmd, _export_env(name), _export_cpus(name)
    return [sys.executable, str(HERE / "setup_probe.py"), name], None, None


def measure_setup(name):
    """Median set-up time over SETUP_REPEATS fresh interpreters: (reference s, wall s, CPU s)."""
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"setup-{os.getpid()}.out"
    cmd, env, cpus = _setup_command(name, out_path)
    runs = [spawn(cmd, env, cpus) for _ in range(SETUP_REPEATS)]
    out_path.unlink(missing_ok=True)
    failed = [run for run in runs if run.status != 0]
    if failed:
        raise SystemExit(f"set-up probe failed: {failed[0].stderr.strip()}")
    return tuple(statistics.median(getattr(r, k) for r in runs) for k in ("ref", "wall", "cpu"))


def _check_export(name, path, seed):
    """Parse one export and check it; returns a list of problems."""
    w = EXPORTS[name]
    want_axes = (np.linspace(EXPORT_AXES["r_min"], EXPORT_AXES["r_max"], w["nr"]),
                 np.linspace(0.0, 2.0 * np.pi, EXPORT_AXES["nphi"], endpoint=False),
                 np.arange(-EXPORT_AXES["lmax"], EXPORT_AXES["lmax"] + 1))
    if w["format"] == "csv":
        header, data = checks.read_csv(path)
        axes, values, problems = checks.grid_from_csv(header, data)
    else:
        header, axes, values, problems = checks.read_json_grid(path)
    state = _build(w["spec"])
    problems += checks.check_header(header, axes, w["spec"], want_axes,
                                    state.max_total_quanta + 8)
    if values is None or problems:
        return problems
    problems += checks.check_finite(values)
    if w["harmonics"] == {0}:
        problems += checks.check_phi_flat(values)
        problems += checks.check_zeros_underflow(values, axes[0], axes[2])
    else:
        problems += checks.check_harmonics(values, w["harmonics"])
    problems += _reference_sample(state, axes, values, seed)
    return problems


def _reference_sample(state, axes, values, seed):
    from reference import table_of, w_reference  # noqa: PLC0415
    rng = np.random.default_rng([seed, 1])
    table = table_of(state)
    scale = float(np.abs(values).max())
    problems = []
    for _ in range(EXPORT_REF_POINTS):
        i, j, k = (int(rng.integers(n)) for n in values.shape)
        r, phi, ell = axes[0][i], axes[1][j], int(axes[2][k])
        ref, _ = w_reference(table, r, phi, ell)
        problems += checks.check_reference(values[i, j, k], ref, scale,
                                           f"grid point r={r!r} phi={phi!r} ell={ell}")
    return problems


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def export_workload(name, seed, seconds, trace):
    out = Outcome()
    OUT.mkdir(exist_ok=True)
    suffix = EXPORTS[name]["format"]
    first = OUT / f"{name}-{os.getpid()}-first.{suffix}"
    scratch = OUT / f"{name}-{os.getpid()}.{suffix}"
    digests = []
    rows = []

    def keep(round_outputs, span_file=None):
        if round_outputs[0].status != 0:
            return
        size = scratch.stat().st_size
        digests.append(_digest(scratch))
        if not first.exists():
            scratch.replace(first)
        if span_file is not None:
            row = layer_metrics(tracing.summarize(tracing.load(span_file)))
            row["cli.bytes_written"] = float(size)
            rows.append(row)

    n_points = EXPORTS[name]["nr"] * EXPORT_AXES["nphi"] * (2 * EXPORT_AXES["lmax"] + 1)
    if not trace:
        timings, outputs = run_rounds([_export_op(name, scratch)], seconds, on_round=keep)
    else:
        base, outputs = run_rounds([_export_op(name, scratch)], seconds / 2, 2, on_round=keep)
        spans = OUT / f"trace-{name}.npz"
        timings, traced = run_rounds([_export_op(name, scratch, spans)], seconds / 2, 2,
                                     on_round=lambda res: keep(res, spans))
        outputs[0].extend(traced[0])
        _report_layers(out, rows, timings.round_s() / base.round_s())

    results = outputs[0]
    out.attempted = len(results)
    bad = [res for res in results if res.status != 0]
    out.failed = len(bad)
    for res in bad[:3]:
        out.notes.append(f"wigner-cyl exited {res.status}: {res.stderr.strip()[:300]}")
    if len(set(digests)) > 1:
        out.problems.append("exports of the same request differ byte for byte")
    if first.exists():
        out.problems += _check_export(name, first, seed)
        first.unlink()
    else:
        out.problems.append("no export was written")
    scratch.unlink(missing_ok=True)
    if not trace:
        out.metric("points_per_s", n_points / timings.round_s(), "1/s")
        out.metric("peak_rss_mib", statistics.median(res.rss_mib for res in results), "MiB")
        out.notes.append(timing_note(timings, n_points))
    return out


# ---------------------------------------------------------------- in-process

def _build(spec):
    from cylwigner.statespec import build_state, parse_state_spec  # noqa: PLC0415
    return build_state(parse_state_spec(spec))


def _radial_value(cyl, errors, state, r):
    """The ell_max-widening retry callers wrap around marginal_radial."""
    a, b, c = RADIAL_ELL_START
    ell_max = max(a, int(b * r) + c)
    while True:
        try:
            return cyl.marginal_radial(state, r, ell_max)
        except errors:
            if ell_max >= RADIAL_ELL_CAP:
                raise
            ell_max += RADIAL_ELL_STEP


def marginals_plan(seed):
    """Radial nodes, and angle samples offset by the seed."""
    rng = np.random.default_rng([seed, 3])
    lo, hi = RADIAL_RANGE
    r_nodes = lo + (hi - lo) * (np.arange(RADIAL_NODES) + 0.5) / RADIAL_NODES
    phis = 2.0 * np.pi * (np.arange(ANGLE_SAMPLES) + rng.uniform()) / ANGLE_SAMPLES
    return r_nodes, phis


def marginals_ops(built, seed):
    from cylwigner import cylindrical as cyl  # noqa: PLC0415
    from cylwigner.errors import ConvergenceError  # noqa: PLC0415

    summed, _ = built["summed l0=0 Nmax=20"]
    sup, radial_rule = built["superposition l1=3 l2=-3 phi0=0 Nmax=9"]
    r_nodes, phis = marginals_plan(seed)
    ops = [(lambda r=r: _radial_value(cyl, ConvergenceError, summed, r)) for r in r_nodes]
    ops += [(lambda p=p: cyl.marginal_angle_oam(sup, p, 0, radial_rule)) for p in phis]
    return ops


def _same_each_round(outputs):
    """Every op gave the same output (or the same error) in every round."""
    def key(v):
        return (type(v).__name__, str(v)) if isinstance(v, Exception) else v
    return all(key(v) == key(o[0]) for o in outputs for v in o)


def check_marginals(built, seed, outputs):
    r_nodes, phis = marginals_plan(seed)
    first = [o[0] for o in outputs]
    if any(isinstance(v, Exception) for v in first):
        return ["a marginal raised, so the profile and curve are incomplete"]
    profile = np.array(first[:len(r_nodes)])
    curve = np.array(first[len(r_nodes):])
    problems = []
    if not _same_each_round(outputs):
        problems.append("repeated marginal calls gave different values")
    problems += checks.check_finite(np.array(first))
    problems += checks.check_rings(profile)
    problems += checks.check_angle_curve(curve)
    problems += _marginal_reference(built, seed, r_nodes, phis, curve)
    return problems


def _marginal_reference(built, seed, r_nodes, phis, curve):
    """Kernel points under both marginals, and one angle-OAM value, against mpmath."""
    from cylwigner import cylindrical as cyl  # noqa: PLC0415
    from reference import table_of, w_reference  # noqa: PLC0415

    summed, _ = built["summed l0=0 Nmax=20"]
    sup, radial_rule = built["superposition l1=3 l2=-3 phi0=0 Nmax=9"]
    rng = np.random.default_rng([seed, 4])
    problems = []
    for _ in range(2):
        r = float(r_nodes[rng.integers(len(r_nodes))])
        ell = int(rng.integers(0, max(3, int(5.5 * r) + 3) + 1))
        ref, _ = w_reference(table_of(summed), r, 0.0, ell)
        got = cyl.wigner_cyl(summed, cyl.CylPoint(r, 0.0, ell))
        # W of this state is of order one (at most about 3)
        problems += checks.check_reference(got, ref, 1.0, f"summed Nmax=20 at r={r!r} ell={ell}")
    j = int(rng.integers(len(phis)))
    table = table_of(sup)
    ref = sum(w * w_reference(table, r, phis[j], 0)[0]
              for r, w in zip(radial_rule.nodes, radial_rule.weights))
    problems += checks.check_reference(curve[j], ref, float(np.abs(curve).max()),
                                       f"angle-OAM marginal at phi={phis[j]!r}")
    return problems


def crosscheck_plan(seed):
    """Seeded points per family: [(spec, r, phi, ell)]."""
    rng = np.random.default_rng([seed, 5])
    return [(spec, float(rng.uniform(*CROSS_R)), float(rng.uniform(0.0, 2.0 * np.pi)),
             int(rng.integers(-CROSS_ELL, CROSS_ELL + 1)))
            for spec in FAMILIES for _ in range(CROSS_POINTS)]


def _probe_table():
    import json  # noqa: PLC0415
    doc = json.loads((HERE / "probe_reference.json").read_text())
    return [(f"summed l0=0 Nmax={p['Nmax']}", p["r"], p["phi"], p["ell"], float(p["value"]))
            for p in doc["probes"]]


def crosscheck_ops(built, seed):
    from cylwigner import cylindrical as cyl  # noqa: PLC0415

    def pair(state, pr_rule, pt):
        return cyl.wigner_cyl(state, pt), cyl.oracle_cyl_from_cartesian(state, pt, pr_rule)

    ops = []
    for spec, r, phi, ell in crosscheck_plan(seed):
        state, pr_rule = built[spec]
        ops.append(lambda s=state, q=pr_rule, p=cyl.CylPoint(r, phi, ell): pair(s, q, p))
    for spec, r, phi, ell, _ in _probe_table():
        state, _ = built[spec]
        ops.append(lambda s=state, p=cyl.CylPoint(r, phi, ell): cyl.wigner_cyl(s, p))
    return ops


def check_crosscheck(built, seed, outputs):
    """Problems with the cross-check points, and the failed probes as (index, text)."""
    from reference import table_of, w_reference  # noqa: PLC0415

    plan = crosscheck_plan(seed)
    problems = []
    if not _same_each_round(outputs):
        problems.append("repeated evaluations gave different values")
    rng = np.random.default_rng([seed, 6])
    sampled = {spec: int(rng.integers(CROSS_POINTS)) for spec in FAMILIES}
    for idx, (spec, r, phi, ell) in enumerate(plan):
        res = outputs[idx][0]
        where = f"{spec} at r={r!r} phi={phi!r} ell={ell}"
        if isinstance(res, Exception):
            continue
        direct, oracle = res
        problems += checks.check_kappa(direct, oracle, where)
        if spec == VACUUM:
            problems += checks.check_vacuum(direct, r, ell, where)
        if idx % CROSS_POINTS == sampled[spec]:
            ref, _ = w_reference(table_of(built[spec][0]), r, phi, ell)
            # W of these states is of order one (the vacuum peaks at 4 sqrt(pi))
            problems += checks.check_reference(direct, ref, 1.0, where)
    failed_probes = []
    for k, (spec, r, phi, ell, ref) in enumerate(_probe_table()):
        res = outputs[len(plan) + k][0]
        if isinstance(res, Exception) or checks.check_reference(res, ref, abs(ref)):
            failed_probes.append((len(plan) + k, f"{spec} at r={r} phi={phi} ell={ell}: "
                                     f"got {res!r}, reference {ref!r}"))
    return problems, failed_probes


def inprocess_workload(name, seed, seconds, trace):
    out = Outcome()
    with warnings.catch_warnings(record=True) as caught:
        # the program's warnings are recorded; each distinct one becomes a note
        warnings.simplefilter("default")
        built, ops, outputs, timings, rss = _inprocess_rounds(out, name, seed, seconds, trace)
    out.notes += sorted({f"warning: {w.category.__name__}: {w.message}" for w in caught})

    failed = {i: f"raised {o[0]!r}" for i, o in enumerate(outputs)
              if isinstance(o[0], Exception)}
    n_values = len(ops)
    if name == "marginals-summed":
        out.problems += check_marginals(built, seed, outputs)
    else:
        problems, failed_probes = check_crosscheck(built, seed, outputs)
        out.problems += problems
        for i, text in failed_probes:
            failed[i] = f"known fault, {PROBE_FAULT}: {text}"
        # the probes are timed, but are not points evaluated by both routes
        n_values = len(crosscheck_plan(seed))
    out.notes += [f"failed operation {i}: {text}" for i, text in sorted(failed.items())]
    n_rounds = len(outputs[0])
    out.attempted = len(ops) * n_rounds
    out.failed = len(failed) * n_rounds
    if not trace:
        delivered = n_values - sum(1 for i in failed if i < n_values)
        out.metric("points_per_s", delivered / timings.round_s(), "1/s")
        out.metric("peak_rss_mib", rss, "MiB")
        out.notes.append(timing_note(timings, delivered))
    return out


def _inprocess_rounds(out, name, seed, seconds, trace):
    """Set up and run the rounds; (built, ops, outputs, timings, peak RSS or None)."""
    built = setup_probe.build(name)
    make_ops = marginals_ops if name == "marginals-summed" else crosscheck_ops
    ops = make_ops(built, seed)
    if not trace:
        timings, outputs = run_rounds(ops, seconds)
        return built, ops, outputs, timings, self_rss_mib()
    base, outputs = run_rounds(ops, seconds / 2, 2)
    tracer = tracing.Tracer().install()
    lo = tracer.mark()
    built = setup_probe.build(name)
    setup_rows = layer_metrics(tracing.summarize(tracer.spans(), lo, tracer.mark()))
    ops = make_ops(built, seed)
    marks = [tracer.mark()]
    timings, traced_outputs = run_rounds(ops, seconds / 2, 2,
                                         on_round=lambda _: marks.append(tracer.mark()))
    for o, more in zip(outputs, traced_outputs):
        o.extend(more)
    spans = tracer.spans()
    tracer.write(OUT / f"trace-{name}.npz")
    rows = [layer_metrics(tracing.summarize(spans, a, b)) for a, b in zip(marks, marks[1:])]
    _report_layers(out, rows, timings.round_s() / base.round_s(), setup_rows)
    return built, ops, outputs, timings, None


# ---------------------------------------------------------------- layers

def _calls(fn):
    return lambda s: s[fn]["calls"]


def _total(*fns):
    return lambda s: sum(s[fn]["total_s"] for fn in fns)


def _self(fn):
    return lambda s: s[fn]["self_s"]


#: Per-layer metrics: name -> (unit, better, how it is read from a summary).
LAYER_METRICS = {
    "statespec.build_calls": ("count", "lower", _calls("statespec.build_state")),
    "statespec.build_s": ("s", "lower", _total("statespec.build_state")),
    "quadrature.rules_built": ("count", "lower", lambda s: s["quadrature.gauss_hermite"]["calls"]
                               + s["quadrature.gauss_legendre_mapped"]["calls"]),
    "quadrature.rule_s": ("s", "lower", _total("quadrature.gauss_hermite",
                                               "quadrature.gauss_legendre_mapped")),
    "specfun.hermite2_calls": ("count", "lower", _calls("specfun.hermite2_general")),
    "specfun.hermite2_s": ("s", "lower", _total("specfun.hermite2_general")),
    "specfun.hermite2_terms": ("count", "lower", lambda s: s["specfun.hermite2_general"]["extra"]),
    "specfun.laguerre_calls": ("count", "lower", _calls("specfun.laguerre")),
    "specfun.laguerre_s": ("s", "lower", _total("specfun.laguerre")),
    "entangled.amplitude_calls": ("count", "lower", _calls("entangled.amplitude_polynomial")),
    "entangled.amplitude_self_s": ("s", "lower", _self("entangled.amplitude_polynomial")),
    "cylindrical.points": ("count", "lower", _calls("cylindrical.wigner_cyl")),
    "cylindrical.point_self_s": ("s", "lower", _self("cylindrical.wigner_cyl")),
    "cylindrical.points_underflow": ("count", "lower", lambda s: s["cylindrical.wigner_cyl"]["extra"]),
    "cylindrical.grid_s": ("s", "lower", _total("cylindrical.wigner_cyl_grid")),
    "cylindrical.radial_attempts": ("count", "lower", _calls("cylindrical.marginal_radial")),
    "cylindrical.radial_ok": (None, None, lambda s: s["cylindrical.marginal_radial"]["calls"]
                              - s["cylindrical.marginal_radial"]["raised"]),
    "cylindrical.angle_s": ("s", "lower", _total("cylindrical.marginal_angle_oam")),
    "cylindrical.oracle_s": ("s", "lower", _total("cylindrical.oracle_cyl_from_cartesian")),
    "twomode.wigner4d_calls": ("count", "lower", _calls("twomode.wigner_4d")),
    "twomode.wigner4d_self_s": ("s", "lower", _self("twomode.wigner_4d")),
    "twomode.displaced_fock_s": ("s", "lower", _total("twomode.displaced_fock_matrix")),
    "cli.write_s": ("s", "lower", _total("cli.write_grid_csv", "cli.write_grid_json")),
}
#: Reported, but not read from a span summary.
DERIVED_METRICS = {
    "cylindrical.radial_useful_ratio": ("ratio", "higher"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_metrics(summary):
    return {name: float(read(summary)) for name, (_, _, read) in LAYER_METRICS.items()}


def _report_layers(out, rows, overhead_ratio, setup_row=None):
    """Per-layer metrics of one typical operation round: the median over rounds,
    plus the traced set-up when the workload builds its states in-process."""
    keys = set().union(*rows) if rows else set(LAYER_METRICS)
    merged = {k: statistics.median(row.get(k, 0.0) for row in rows) if rows else 0.0
              for k in keys}
    for k, v in (setup_row or {}).items():
        merged[k] = merged.get(k, 0.0) + v
    attempts = merged["cylindrical.radial_attempts"]
    useful = merged.pop("cylindrical.radial_ok")
    merged["cylindrical.radial_useful_ratio"] = useful / attempts if attempts else 0.0
    merged.setdefault("cli.bytes_written", 0.0)
    merged["trace.overhead_pct"] = 100.0 * (overhead_ratio - 1.0)
    units = {k: u for k, (u, _, _) in LAYER_METRICS.items()}
    units.update({k: u for k, (u, _) in DERIVED_METRICS.items()})
    for k in sorted(merged):
        out.metric(k, merged[k], units[k])


def run(name, seed, seconds, trace):
    if name in EXPORTS:
        return export_workload(name, seed, seconds, trace)
    return inprocess_workload(name, seed, seconds, trace)
