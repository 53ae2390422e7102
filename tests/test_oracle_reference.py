"""The 4D oracle against 110-digit values of the mpmath reference, at 20, 40 and 60 quanta.

The reference values are ``w_reference`` of ``perfbench/reference.py``, an mpmath
evaluation of the transform that reads nothing of the program but the state's
coefficient table.  Four families (summed, superposition, eigenstate and a random
20-entry raw table) at 20, 40 and 60 total quanta get ten points each, drawn from
one ``default_rng(11)`` stream in the order of CASES: per point r log-uniform on
[0.2, 6], then ell uniform on -8..8, then phi uniform on [0, 2 pi), redrawn until
r^2 + ell^2 / r^2 <= 650.  Each value is checked against the same evaluation at
40 more digits.  They take about two minutes, so they are stored in
``oracle_reference.json``; regenerate them with

    PYTHONPATH=src python3 tests/test_oracle_reference.py > tests/oracle_reference.json
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from test_radial_reference import _reference_module

from cylwigner import KAPPA, CylPoint, default_rule, oracle_cyl_from_cartesian
from cylwigner.statespec import StateKind, StateSpec, build_state, parse_state_spec
from cylwigner.statespec import serialize_state_spec

STORED = Path(__file__).resolve().parent / "oracle_reference.json"
COMMAND = "PYTHONPATH=src python3 tests/test_oracle_reference.py > tests/oracle_reference.json"
DPS = 110
POINTS = 10
#: the generated families by total quanta; "raw" is a random table drawn in ``_raw_spec``
CASES = [spec for quanta in (20, 40, 60) for spec in (
    f"summed l0={2 * (quanta == 60)} Nmax={quanta}",
    f"superposition l1=5 l2=-4 phi0=0.7 Nmax={quanta}",
    f"eigenstate N={quanta} l0={quanta // 10 - 4}",
    f"raw {quanta}")]
#: bound on |KAPPA oracle - ref| / |ref| by total quanta.  The measured worsts are 7.4e-14,
#: 1.6e-13 and 2.7e-13, the last at a superposition point where W = 2.6e-5 passes near zero
TOLERANCE = {20: 2e-13, 40: 5e-13, 60: 1e-11}


def _raw_spec(rng, quanta, entries=20):
    """A raw spec of ``entries`` distinct entries with n+ + n- <= quanta, one of them on it,
    and standard complex normal coefficients."""
    top = int(rng.integers(quanta + 1))
    cells = [(i, j) for i in range(quanta + 1) for j in range(quanta + 1 - i)
             if (i, j) != (top, quanta - top)]
    picked = [cells[k] for k in rng.choice(len(cells), entries - 1, replace=False)]
    coeffs = {(int(i), int(j)): complex(*rng.normal(size=2))
              for i, j in [(top, quanta - top)] + picked}
    return serialize_state_spec(StateSpec(StateKind.RAW_COEFFS, {"coeffs": coeffs}))


def _points(rng, count=POINTS):
    points = []
    while len(points) < count:
        r = math.exp(rng.uniform(math.log(0.2), math.log(6.0)))
        ell = int(rng.integers(-8, 9))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        if r * r + (ell / r) ** 2 <= 650.0:
            points.append((r, phi, ell))
    return points


def _stored():
    doc = json.loads(STORED.read_text())
    assert doc["command"] == COMMAND and doc["dps"] == DPS
    return doc["values"]


def test_oracle_matches_the_reference():
    values = _stored()
    states = {spec: build_state(parse_state_spec(spec)) for spec in {e["state"] for e in values}}
    assert len(states) == len(CASES) and len(values) == len(CASES) * POINTS
    off = []
    for entry in values:
        s = states[entry["state"]]
        want = float(entry["value"])
        got = KAPPA * oracle_cyl_from_cartesian(
            s, CylPoint(entry["r"], entry["phi"], entry["ell"]), default_rule(s))
        if not abs(got - want) <= TOLERANCE[s.max_total_quanta] * abs(want):
            off.append((entry["state"], entry["r"], entry["phi"], entry["ell"], got, want))
    assert off == []


def test_stored_value_is_the_reference_codes():
    pytest.importorskip("mpmath")
    entry = _stored()[0]
    ref = _reference_module()
    got, _ = ref.w_reference(ref.table_of(build_state(parse_state_spec(entry["state"]))),
                             entry["r"], entry["phi"], entry["ell"], DPS)
    assert got == float(entry["value"])


def main():
    ref = _reference_module()
    rng = np.random.default_rng(11)
    values = []
    for case in CASES:
        spec = _raw_spec(rng, int(case.split()[1])) if case.startswith("raw ") else case
        table = ref.table_of(build_state(parse_state_spec(spec)))
        for r, phi, ell in _points(rng):
            value, _ = ref.w_reference(table, r, phi, ell, DPS)
            check, _ = ref.w_reference(table, r, phi, ell, DPS + 40)
            if abs(value - check) > 1e-15 * abs(check):
                raise SystemExit(f"reference not converged for {spec} at {r!r}, {phi!r}, {ell}")
            values.append({"state": spec, "r": r, "phi": phi, "ell": ell, "value": repr(value)})
    print(json.dumps({"command": COMMAND, "dps": DPS, "values": values}, indent=1))


if __name__ == "__main__":
    main()
