"""The benchmark's correctness checks accept real output and reject corrupted output.

    python3 -m pytest perfbench -q

Small exports are made with the program's own wigner-cyl command; each
check must pass on them and fail once one value, one row or one header
field is corrupted.
"""

import json
import os
import subprocess
import sys
from math import pi
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
from reference import PROBE_DPS, table_of, w_reference  # noqa: E402

SUP = "superposition l1=3 l2=-3 phi0=0 Nmax=9"
EIG = "eigenstate N=2 l0=0"
AXES = {"r_min": 1e-3, "r_max": 6.0, "nr": 3, "nphi": 64, "lmax": 5}


def _want_axes():
    return (np.linspace(AXES["r_min"], AXES["r_max"], AXES["nr"]),
            np.linspace(0.0, 2.0 * pi, AXES["nphi"], endpoint=False),
            np.arange(-AXES["lmax"], AXES["lmax"] + 1))


def _export(tmp, spec, fmt):
    path = tmp / f"grid.{fmt}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("OAM_WIGNER_THREADS", None)
    subprocess.run([sys.executable, "-m", "cylwigner.cli", "wigner-cyl", "--state", spec,
                    "--r-min", repr(AXES["r_min"]), "--r-max", repr(AXES["r_max"]),
                    "--nr", str(AXES["nr"]), "--nphi", str(AXES["nphi"]),
                    "--lmax", str(AXES["lmax"]), "--format", fmt, "--out", str(path)],
                   env=env, check=True)
    return path


@pytest.fixture(scope="module")
def sup_csv(tmp_path_factory):
    path = _export(tmp_path_factory.mktemp("sup"), SUP, "csv")
    header, data = checks.read_csv(path)
    axes, values, problems = checks.grid_from_csv(header, data)
    assert problems == []
    return path, header, axes, values


@pytest.fixture(scope="module")
def eig_json(tmp_path_factory):
    path = _export(tmp_path_factory.mktemp("eig"), EIG, "json")
    header, axes, values, problems = checks.read_json_grid(path)
    assert problems == []
    return path, header, axes, values


def test_program_output_passes(sup_csv, eig_json):
    _, header, axes, values = sup_csv
    assert checks.check_header(header, axes, SUP, _want_axes(), 17) == []
    assert checks.check_finite(values) == []
    assert checks.check_harmonics(values, {0, 6}) == []
    _, header, axes, values = eig_json
    assert checks.check_header(header, axes, EIG, _want_axes(), 10) == []
    assert checks.check_phi_flat(values) == []
    assert checks.check_zeros_underflow(values, axes[0], axes[2]) == []


def _largest(values):
    return np.unravel_index(np.argmax(np.abs(values)), values.shape)


def test_sign_flip_rejected(sup_csv, eig_json):
    values = sup_csv[3].copy()
    values[_largest(values)] *= -1
    assert checks.check_harmonics(values, {0, 6})
    values = eig_json[3].copy()
    values[_largest(values)] *= -1
    assert checks.check_phi_flat(values)


def test_injected_harmonic_rejected(sup_csv):
    values = sup_csv[3].copy()
    i, _, k = _largest(values)
    phi = sup_csv[2][1]
    values[i, :, k] += 1e-6 * abs(values[i, :, k]).max() * np.cos(3 * phi)
    assert checks.check_harmonics(values, {0, 6})


def test_injected_phi_dependence_rejected(eig_json):
    values = eig_json[3].copy()
    i, _, k = _largest(values)
    phi = eig_json[2][1]
    values[i, :, k] *= 1.0 + 1e-9 * np.cos(phi)
    assert checks.check_phi_flat(values)


def test_zero_without_underflow_rejected(eig_json):
    values = eig_json[3].copy()
    values[_largest(values)] = 0.0
    assert checks.check_zeros_underflow(values, eig_json[2][0], eig_json[2][2])


def test_kappa_ratio_off_rejected():
    oracle = 0.0123
    assert checks.check_kappa(checks.KAPPA * oracle * (1 + 1e-8), oracle) == []
    assert checks.check_kappa(checks.KAPPA * oracle * (1 + 1e-4), oracle)
    assert checks.check_kappa(checks.KAPPA * oracle * (1 - 1e-4), oracle)


def test_vacuum_closed_form_rejects_offset():
    want = 4.0 * np.sqrt(pi) * np.exp(-1.1 ** 2 - 4 / 1.1 ** 2)
    assert checks.check_vacuum(want, 1.1, 2) == []
    assert checks.check_vacuum(want * (1 + 1e-8), 1.1, 2)


def _rewrite_csv_header(src, dst, key, new):
    lines = src.read_text().splitlines(keepends=True)
    out = [f"# {key}: {new}\n" if line.startswith(f"# {key}: ") else line for line in lines]
    dst.write_text("".join(out))


@pytest.mark.parametrize("key,new", [
    ("state", "superposition l1=3 l2=-3 phi0=0.0 Nmax=8"),
    ("state", "summed l0=3 Nmax=9"),
    ("quad_order", "16"),
    ("phi_nodes", " ".join(f"{v:.17g}" for v in np.linspace(0, 2 * pi, 64))),
])
def test_csv_header_that_does_not_echo_is_rejected(sup_csv, tmp_path, key, new):
    path = tmp_path / "bad.csv"
    _rewrite_csv_header(sup_csv[0], path, key, new)
    header, data = checks.read_csv(path)
    axes, _, problems = checks.grid_from_csv(header, data)
    problems += checks.check_header(header, axes, SUP, _want_axes(), 17)
    assert problems


@pytest.mark.parametrize("key,new", [
    ("state", "eigenstate N=4 l0=0"),
    ("r_nodes", ["0.001", "2", "6"]),
    ("ell_values", list(range(-4, 7))),
])
def test_json_header_that_does_not_echo_is_rejected(eig_json, tmp_path, key, new):
    doc = json.loads(eig_json[0].read_text())
    doc[key] = new
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    header, axes, _, problems = checks.read_json_grid(path)
    problems += checks.check_header(header, axes, EIG, _want_axes(), 10)
    assert problems


def test_marginal_shape_checks_reject_wrong_curves():
    phis = 2 * pi * (np.arange(16) + 0.3) / 16
    assert checks.check_angle_curve(2 * pi * np.cos(6 * phis)) == []
    assert checks.check_angle_curve(2 * pi * np.cos(5 * phis))
    assert checks.check_angle_curve(1.0 + 0.5 * np.cos(6 * phis))
    r = np.linspace(0.2, 6, 24)
    assert checks.check_rings(np.cos(4.0 * r) + 2) == []
    assert checks.check_rings(np.cos(0.9 * r) + 2)


def test_reference_matches_closed_form_and_program():
    from cylwigner import CylPoint, make_N_l_eigenstate, make_superposition, wigner_cyl

    vac = table_of(make_N_l_eigenstate(0, 0))
    val, imag = w_reference(vac, 0.9, 1.1, 2)
    assert checks.check_vacuum(val, 0.9, 2) == []
    assert abs(imag) < 1e-30
    s = make_superposition(3, -3, 0.4, 9)
    got = wigner_cyl(s, CylPoint(1.37, 5.97, -3))
    ref, _ = w_reference(table_of(s), 1.37, 5.97, -3)
    assert checks.check_reference(got, ref, 1.0) == []
    assert checks.check_reference(got * (1 + 1e-5), ref, 1.0)


def test_stored_probe_values_are_reproduced():
    from cylwigner import make_summed_oam

    doc = json.loads((HERE / "probe_reference.json").read_text())
    assert doc["dps"] == PROBE_DPS
    for p in doc["probes"]:
        val, _ = w_reference(table_of(make_summed_oam(0, p["Nmax"])), p["r"], p["phi"],
                             p["ell"], dps=PROBE_DPS)
        assert val == float(p["value"])
