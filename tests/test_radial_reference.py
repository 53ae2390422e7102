"""The radial marginal against 60-digit all-ell sums of the mpmath reference.

The reference values are P(r) = sum_ell Int W(r, phi, ell) dphi, with every
W from ``w_reference`` of ``perfbench/reference.py`` (an independent mpmath
evaluation of the transform), the phi integral as the uniform rule that is
exact for W's phi-harmonics, and ell summed outward from 0 until the rings
are negligible.  They take about a minute at 40 quanta, so they are stored
in ``radial_reference.json``; regenerate them with

    PYTHONPATH=src python3 tests/test_radial_reference.py > tests/radial_reference.json
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from cylwigner import make_summed_oam, marginal_radial
from cylwigner.cylindrical import _radial_sum
from cylwigner.statespec import build_state, parse_state_spec

HERE = Path(__file__).resolve().parent
REFERENCE = HERE.parent / "perfbench" / "reference.py"
STORED = HERE / "radial_reference.json"
COMMAND = "PYTHONPATH=src python3 tests/test_radial_reference.py > tests/radial_reference.json"
DPS = 60

#: (spec, r) pairs of the stored file; the last is small enough to recompute live
CASES = ([("summed l0=0 Nmax=20", r) for r in (0.3, 0.5, 1.0, 1.54, 2.5)]
         + [("summed l0=0 Nmax=40", r) for r in (0.5, 2.0)]
         + [("superposition l1=3 l2=-3 phi0=0 Nmax=9", 1.1)])
#: relative tolerance of marginal_radial against the reference, by total quanta
TOLERANCE = {20: 1e-12, 40: 1e-8, 9: 1e-12}


def _reference_module():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # imports mpmath
    return module


def all_ell_reference(state, r, dps=DPS):
    """(P(r), largest |ell| summed) from the mpmath reference."""
    ref = _reference_module()
    table = ref.table_of(state)
    offsets = [i - j for i, j in table]
    n_phi = max(offsets) - min(offsets) + 1  # exact for harmonics up to the span

    def ring(ell):
        return 2.0 * math.pi / n_phi * math.fsum(
            ref.w_reference(table, r, 2.0 * math.pi * k / n_phi, ell, dps)[0]
            for k in range(n_phi))

    rings = [ring(0)]
    ell = 0
    # past the polynomial's peak at |ell|/r ~ sqrt(quanta), the rings only shrink
    while True:
        ell += 1
        pair = ring(ell) + ring(-ell)
        rings.append(pair)
        if (ell / r) ** 2 > 2 * state.max_total_quanta + 1 \
                and abs(pair) <= 1e-25 * math.fsum(abs(v) for v in rings):
            return math.fsum(rings), ell


def _stored(spec, r):
    """The state, and the stored entry for (spec, r)."""
    doc = json.loads(STORED.read_text())
    assert doc["command"] == COMMAND and doc["dps"] == DPS
    entry, = (e for e in doc["values"] if (e["state"], e["r"]) == (spec, r))
    return build_state(parse_state_spec(spec)), entry


@pytest.mark.parametrize("spec, r", CASES)
def test_marginal_radial_matches_the_reference(spec, r):
    state, entry = _stored(spec, r)
    want = float(entry["value"])
    got = marginal_radial(state, r)
    assert abs(got - want) <= TOLERANCE[state.max_total_quanta] * abs(want)


def test_stored_value_is_the_reference_codes():
    pytest.importorskip("mpmath")
    state, entry = _stored(*CASES[-1])
    assert state.max_total_quanta <= 10
    got, ell_max = all_ell_reference(state, entry["r"])
    assert ell_max == entry["ell_max"]
    assert got == pytest.approx(float(entry["value"]), rel=1e-15, abs=0)


def test_small_r_spacing_switch():
    """Where m of the spacing m pi r changes, the coarse sum is the pi r one."""
    s = make_summed_oam(0, 60)
    grid = [0.03 * 1.02 ** -i for i in range(175)]  # 0.03 down to 9.4e-4
    m = [round(_radial_sum(s, r)[1] / (math.pi * r)) for r in grid]
    switches = [i for i in range(1, len(grid)) if m[i] != m[i - 1]]
    assert m[0] == 1 and m[-1] > 10 and m == sorted(m)
    for i in switches:
        for r in (grid[i - 1], grid[i]):
            coarse = marginal_radial(s, r)
            fine, h = _radial_sum(s, r, fine=True)
            assert h == math.pi * r
            assert abs(coarse - fine) <= 1e-13 * abs(fine)


def main():
    values = []
    for spec, r in CASES:
        value, ell_max = all_ell_reference(build_state(parse_state_spec(spec)), r)
        values.append({"state": spec, "r": r, "value": repr(value), "ell_max": ell_max})
    print(json.dumps({"command": COMMAND, "dps": DPS, "values": values}, indent=1))


if __name__ == "__main__":
    main()
