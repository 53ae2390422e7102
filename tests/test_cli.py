import io
import json
import os
import subprocess
import sys
import tracemalloc
from math import exp, pi, sqrt
from pathlib import Path

import numpy as np
import pytest

from cylwigner import (CylPoint, __version__, cli, default_rule, statespec, wigner_cyl,
                       wigner_cyl_grid)
from cylwigner.cli import _fmt, main, write_grid_csv, write_grid_json
from cylwigner.statespec import build_state, parse_state_spec, serialize_state_spec


VACUUM = "raw c[0,0]=1"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_single_point_vacuum_csv(capsys):
    code, out, err = run(capsys, [
        "wigner-cyl", "--state", VACUUM, "--r-min", "1", "--r-max", "2",
        "--nr", "1", "--nphi", "1", "--lmax", "0",
    ])
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(rows) == 1
    r, phi, ell, w = rows[0].split(",")
    assert (float(r), float(phi), int(ell)) == (1.0, 0.0, 0)
    assert float(w) == pytest.approx(4.0 * sqrt(pi) * exp(-1.0), rel=1e-12)
    header = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert any("state: raw c[0,0]=1" in ln for ln in header)


@pytest.mark.parametrize("c", ["1e200", "1e-200", "3e-320"])
def test_raw_spec_of_any_scale_exports_the_vacuum(capsys, c):
    argv = ["wigner-cyl", "--r-min", "0.5", "--r-max", "1.5", "--nr", "2", "--nphi", "2",
            "--lmax", "1"]
    code, out, _ = run(capsys, argv + ["--state", f"raw c[0,0]={c}"])
    assert code == 0
    _, want, _ = run(capsys, argv + ["--state", VACUUM])
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows == [ln for ln in want.splitlines() if not ln.startswith("#")]


def test_json_export_loads(capsys):
    code, out, _ = run(capsys, [
        "wigner-cyl", "--state", "eigenstate N=1 l0=1", "--r-min", "0.5",
        "--r-max", "1.5", "--nr", "2", "--nphi", "2", "--lmax", "1",
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["state"] == "eigenstate N=1 l0=1"
    assert doc["ell_values"] == [-1, 0, 1]
    assert len(doc["values"]) == 2
    assert len(doc["values"][0]) == 2
    assert len(doc["values"][0][0]) == 3


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, ["wigner-cyl", "--state", "bogus N=1"])
    assert code == 2
    record = json.loads(err)
    assert record["exit"] == 2
    assert record["error"] == "SpecParseError"


def test_json_spec_hole_exit_2(capsys):
    code, _, err = run(capsys, ["wigner-cyl", "--state", '{"kind": "raw", "coeffs": 5}'])
    assert code == 2
    assert json.loads(err)["error"] == "SpecParseError"


@pytest.mark.parametrize("text, message", [
    ('{"kind": "raw", "coeffs": []}', "raw spec needs at least one coefficient"),
    ('{"kind": "bogus"}', "unknown state kind 'bogus'"),
    ('{"kind": "raw", "coeffs": [[0, 0, 1]], "x": 1}', "unexpected keys for raw: ['x']"),
    ('{"kind": "raw", "coeffs": [[0, 0]]}', "bad raw coefficient entry [0, 0]"),
], ids=["no-coefficient", "unknown-kind", "unexpected-key", "bad-entry"])
def test_json_spec_refusal_exit_2_with_its_message(capsys, text, message):
    code, out, err = run(capsys, ["wigner-cyl", "--state", text])
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["exit"] == 2 and record["error"] == "SpecParseError"
    assert record["message"].startswith(message)


def test_precondition_exit_3_parity(capsys):
    code, _, err = run(capsys, ["wigner-cyl", "--state", "eigenstate N=3 l0=2"])
    assert code == 3
    assert "parity" in json.loads(err)["message"]


def test_precondition_exit_3_equal_superposition_branches(capsys):
    code, out, err = run(capsys, ["oracle-check", "--state",
                                  "superposition l1=3 l2=3 phi0=3.141592653589793 Nmax=9"])
    assert code == 3 and out == ""
    assert "differ" in json.loads(err)["message"]


def test_precondition_exit_3_grid(capsys):
    code, _, err = run(capsys, [
        "wigner-cyl", "--state", VACUUM, "--r-min", "0", "--r-max", "2",
        "--nr", "2", "--nphi", "1", "--lmax", "0",
    ])
    assert code == 3
    assert "r_min" in json.loads(err)["message"]


@pytest.mark.parametrize("axes, message", [
    (["--r-min", "2", "--r-max", "1"], "r_max must exceed r_min"),
    (["--nr", "0"], "grid must have at least one node per axis"),
    (["--lmin", "3", "--lmax", "1"], "ell_min must not exceed ell_max"),
    (["--r-min", "nan"], "r_min must be finite"),
    (["--r-max", "inf"], "r_max must be finite"),
    # with "=": argparse reads a bare -inf as an option
    (["--r-min=-inf"], "r_min must be finite"),
], ids=["r-max-below-r-min", "no-r-node", "lmin-above-lmax", "r-min-nan", "r-max-inf",
        "r-min-minus-inf"])
def test_grid_axes_refusal_exit_3(capsys, axes, message):
    code, out, err = run(capsys, ["wigner-cyl", "--state", VACUUM] + axes)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "ValueError", "exit": 3, "message": message}


@pytest.mark.parametrize("bound", [["--r-max", "inf"], ["--r-min", "nan"]])
def test_non_finite_r_bound_exit_3(bound):
    # a subprocess, so that a numpy RuntimeWarning would reach stderr as it does for users
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "cylwigner.cli", "wigner-cyl", "--state", VACUUM, "--nr", "2",
         "--nphi", "1", "--lmax", "0"] + bound,
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert done.returncode == 3 and done.stdout == ""
    line, = done.stderr.splitlines()
    record = json.loads(line)
    assert record["exit"] == 3 and record["error"] == "ValueError"
    assert record["message"] == f"{bound[0][2:].replace('-', '_')} must be finite"


@pytest.mark.parametrize("out, error", [("missing/x.csv", "FileNotFoundError"),
                                        (".", "IsADirectoryError")])
def test_unwritable_out_exit_3(tmp_path, out, error):
    # a subprocess, so that a traceback would reach stderr as it does for users
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "cylwigner.cli", "wigner-cyl", "--state", VACUUM, "--nr", "1",
         "--nphi", "1", "--lmax", "0", "--out", str(tmp_path / out)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert done.returncode == 3 and done.stdout == ""
    line, = done.stderr.splitlines()  # one JSON record, no traceback
    record = json.loads(line)
    assert record["exit"] == 3 and record["error"] == error
    assert str(tmp_path) in record["message"]


@pytest.mark.parametrize("axes", [
    ["--nr", "1", "--nphi", "1000000000000"],
    ["--nr", "1", "--nphi", "1", "--lmax", "100000000000"],
    ["--nr", "100000", "--nphi", "100000"],
])
def test_huge_grid_rejected_before_allocating(capsys, axes):
    tracemalloc.start()
    try:
        code, _, err = run(capsys, ["wigner-cyl", "--state", VACUUM] + axes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "exceeds" in json.loads(err)["message"]
    assert peak < 64 * 1024


@pytest.mark.parametrize("ell", [2 ** 70, 10 ** 400])
def test_ell_past_int64_exit_3(capsys, ell):
    code, out, err = run(capsys, ["wigner-cyl", "--state", "eigenstate N=2 l0=0", "--nr", "1",
                                  "--nphi", "1", "--lmin", str(ell), "--lmax", str(ell)])
    assert code == 3 and out == ""
    record = json.loads(err)  # one JSON record, no traceback
    assert record["exit"] == 3 and record["error"] == "ValueError"
    assert "64 bits" in record["message"]


def test_ell_range_ending_at_int64_max_exit_0(capsys):
    top = 2 ** 63 - 1
    code, out, _ = run(capsys, ["wigner-cyl", "--state", "eigenstate N=2 l0=0", "--nr", "1",
                                "--nphi", "1", "--lmin", str(top - 1), "--lmax", str(top)])
    assert code == 0
    assert f"# ell_values: {top - 1} {top}\n" in out


def test_ell_range_ending_past_int64_max_exit_3(capsys):
    top = 2 ** 63 - 1
    code, out, err = run(capsys, ["wigner-cyl", "--state", "eigenstate N=2 l0=0", "--nr", "1",
                                  "--nphi", "1", "--lmin", str(top), "--lmax", str(top + 1)])
    assert code == 3 and out == ""
    record = json.loads(err)  # one JSON record, no traceback
    assert record["message"] == "ell must be an integer of at most 64 bits"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_oracle_check_needs_a_point_exit_3(capsys, n):
    code, _, err = run(capsys, ["oracle-check", "--state", VACUUM, "--n-points", n])
    assert code == 3
    assert "n_points" in json.loads(err)["message"]


def test_oracle_check_uses_a_tiny_but_accurate_point(capsys):
    # seed 34's one point lies at r = 0.507, ell = -3, where the vacuum is 3.3e-15:
    # tiny, yet both routes agree on it to the last digits, so it is a usable point
    code, out, _ = run(capsys, ["oracle-check", "--state", "eigenstate N=0 l0=0",
                                "--n-points", "1", "--seed", "34"])
    assert code == 0
    point, last = out.splitlines()
    assert float(point.split("ratio=")[1]) == pytest.approx(4 * pi ** 2, rel=1e-12)
    assert last.endswith("PASS")


def test_oracle_check_skips_a_route_that_underflows(capsys, monkeypatch):
    calls = []

    def zero_on_second_call(*args):
        calls.append(args)
        return 0.0 if len(calls) == 2 else oracle(*args)

    oracle = cli.oracle_cyl_from_cartesian
    monkeypatch.setattr(cli, "oracle_cyl_from_cartesian", zero_on_second_call)
    code, out, _ = run(capsys, ["oracle-check", "--state", VACUUM, "--n-points", "3",
                                "--seed", "3"])
    lines = out.splitlines()
    assert code == 0 and len(calls) == 3 and len(lines) == 4
    assert lines[1].endswith("skipped (a route underflows to 0)")
    assert "ratio=" in lines[0] and "ratio=" in lines[2] and lines[3].endswith("PASS")


def test_oracle_check_with_no_usable_point_exit_4(capsys, monkeypatch):
    # the direct route underflows at every point, so no ratio: exit 4, not a division by 0
    monkeypatch.setattr(cli, "wigner_cyl", lambda *args: 0.0)
    code, out, err = run(capsys, ["oracle-check", "--state", VACUUM, "--n-points", "2"])
    assert code == 4 and err == ""
    *skipped, last = out.splitlines()
    assert len(skipped) == 2 and last == "no usable points"
    assert all(line.endswith("skipped (a route underflows to 0)") for line in skipped)


def test_oracle_check_vacuum_passes(capsys):
    code, out, _ = run(capsys, ["oracle-check", "--state", VACUUM,
                                "--n-points", "6", "--seed", "3"])
    assert code == 0
    assert "PASS" in out
    assert f"{4 * pi ** 2:.4f}" in out  # kappa around 39.4784


def test_oracle_check_eigenstate_passes(capsys):
    code, out, _ = run(capsys, ["oracle-check", "--state", "eigenstate N=2 l0=0",
                                "--n-points", "5", "--seed", "1"])
    assert code == 0
    assert out.strip().endswith("PASS")


@pytest.mark.parametrize("argv", [
    ["wigner-cyl", "--nr", "2", "--nphi", "3", "--lmax", "1"],
    ["oracle-check", "--n-points", "2"],
])
def test_cli_builds_the_state_once(capsys, monkeypatch, argv):
    # wherever the CLI reaches build_state from: the parse's module or its own import
    calls, exact, text = [], statespec.build_state, "summed l0=1 Nmax=5"
    want = [parse_state_spec(text)]

    def counted(spec):
        calls.append(spec)
        return exact(spec)

    for module in (statespec, cli):
        monkeypatch.setattr(module, "build_state", counted, raising=False)
    code, _, _ = run(capsys, [*argv, "--state", text])
    assert code == 0 and calls == want


def test_byte_determinism(tmp_path, capsys):
    argv = [
        "wigner-cyl", "--state", "summed l0=1 Nmax=5", "--r-min", "0.3",
        "--r-max", "2.3", "--nr", "3", "--nphi", "4", "--lmax", "2",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_bytes()) > 0


def test_export_uses_the_state_rule(capsys):
    # one rule per state: the header records it, and every exported value is
    # the point evaluator's, bit for bit
    text = "superposition l1=3 l2=-3 phi0=0 Nmax=9"
    code, out, _ = run(capsys, ["wigner-cyl", "--state", text, "--r-min", "0.4",
                                "--r-max", "2.4", "--nr", "3", "--nphi", "5", "--lmax", "1"])
    assert code == 0
    state = build_state(parse_state_spec(text))
    header = [ln for ln in out.splitlines() if ln.startswith("# quad_order: ")]
    assert header == [f"# quad_order: {default_rule(state).order}"]
    rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")]
    assert len(rows) == 3 * 5 * 3
    for r, phi, ell, w in rows:
        assert float(w) == wigner_cyl(state, CylPoint(float(r), float(phi), int(ell)))


def _per_row_csv(fh, spec, quad_order, grid):
    """The CSV writer as it was, formatting every axis value on every row."""
    r, phi, ell = grid.r_nodes, grid.phi_nodes, grid.ell_values
    fh.write(f"# cylwigner-grid v{__version__}\n")
    fh.write(f"# state: {serialize_state_spec(spec)}\n")
    fh.write(f"# quad_order: {quad_order}\n")
    fh.write("# r_nodes: " + " ".join(_fmt(v) for v in r) + "\n")
    fh.write("# phi_nodes: " + " ".join(_fmt(v) for v in phi) + "\n")
    fh.write("# ell_values: " + " ".join(str(int(v)) for v in ell) + "\n")
    fh.write("# columns: r,phi,ell,W\n")
    for i, rv in enumerate(r):
        for j, pv in enumerate(phi):
            for k, lv in enumerate(ell):
                fh.write(f"{_fmt(rv)},{_fmt(pv)},{int(lv)},{_fmt(grid.values[i, j, k])}\n")


@pytest.mark.parametrize("text", ["superposition l1=3 l2=-3 phi0=0 Nmax=9",
                                  "summed l0=0 Nmax=20"])
@pytest.mark.parametrize("axes", [
    # r and phi values whose .17g form has an exponent
    ([1e-5, 3.25e-7, 0.3, 1.7], [0.0, 1e-20, 5e-5, 2.0], range(-3, 4)),
    # more rows per r node than one write holds
    ([0.8], np.linspace(0.0, 2.0 * pi, 700, endpoint=False), range(-3, 3)),
])
def test_csv_writer_matches_the_per_row_writer(text, axes):
    spec = parse_state_spec(text)
    state = build_state(spec)
    order = default_rule(state).order
    grid = wigner_cyl_grid(state, *axes)
    got, want = io.StringIO(), io.StringIO()
    write_grid_csv(got, spec, order, grid)
    _per_row_csv(want, spec, order, grid)
    assert got.getvalue() == want.getvalue()
    if len(axes[0]) > 1:
        assert "e-07," in got.getvalue() and "e-21," in got.getvalue()  # 1e-20 reads 9.99...e-21


def _whole_document_json(fh, spec, quad_order, grid):
    """The JSON writer as it was, one json.dump of the whole document."""
    doc = {
        "format": f"cylwigner-grid v{__version__}",
        "state": serialize_state_spec(spec),
        "quad_order": quad_order,
        "r_nodes": [_fmt(v) for v in grid.r_nodes],
        "phi_nodes": [_fmt(v) for v in grid.phi_nodes],
        "ell_values": [int(v) for v in grid.ell_values],
        "values": [[[_fmt(v) for v in row] for row in plane] for plane in grid.values],
    }
    json.dump(doc, fh, indent=1, sort_keys=True)
    fh.write("\n")


@pytest.mark.parametrize("text", ["superposition l1=3 l2=-3 phi0=0.4 Nmax=9",
                                  "raw c[0,0]=0.6 c[1,2]=0.8j"])
@pytest.mark.parametrize("axes", [
    ([0.7], [0.0], [0]),
    ([0.7], [0.0], [-2]),
    ([1.3], [0.0], [3]),
    ([0.4, 1.1, 2.0], [0.0], range(-2, 3)),
    ([0.9], [0.0, 1e-20, 2.5], [-1]),
    ([1e-5, 0.6], [0.0, 3.0], [1]),
    ([0.5, 1.7], [0.0, 1.0, 4.0], range(-3, 2)),
])
def test_json_writer_matches_a_whole_document_dump(text, axes):
    spec = parse_state_spec(text)
    state = build_state(spec)
    order = default_rule(state).order
    grid = wigner_cyl_grid(state, *axes)
    got, want = io.StringIO(), io.StringIO()
    write_grid_json(got, spec, order, grid)
    _whole_document_json(want, spec, order, grid)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("writer", [write_grid_csv, write_grid_json])
def test_writers_hold_one_plane_of_values(writer, tmp_path):
    # planes of the 100 x 100 x 99 export's size; a writer that builds the whole
    # document first peaks at several MiB on ten of them
    spec = parse_state_spec("superposition l1=3 l2=-3 phi0=0 Nmax=9")
    state = build_state(spec)
    grid = wigner_cyl_grid(state, np.linspace(0.05, 6.0, 10),
                           np.linspace(0.0, 2.0 * pi, 100, endpoint=False), range(-49, 50))
    with open(tmp_path / "grid", "w") as fh:
        tracemalloc.start()
        try:
            writer(fh, spec, default_rule(state).order, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("state", [
    "eigenstate N=62 l0=0", "eigenstate N=3000 l0=0", "raw c[100000000,0]=1",
])
def test_order_bound_exit_4(capsys, state):
    code, _, err = run(capsys, ["wigner-cyl", "--state", state, "--nr", "1", "--nphi", "1"])
    assert code == 4
    assert json.loads(err)["error"] == "OrderBoundError"


def test_runtime_imports_no_scipy():
    # numpy is the only run-time dependency; scipy serves the tests alone.  Nor does the
    # CLI's import load what its exports do not use, which every run would pay for:
    # dataclasses, numpy.polynomial (a Legendre rule imports it on use), json or cmath
    unused = ("scipy", "dataclasses", "numpy.polynomial", "json", "cmath")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", "import cylwigner.cli, sys; "
         f"print(' '.join(m for m in {unused!r} if m in sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""
