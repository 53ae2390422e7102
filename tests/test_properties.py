"""Property tests over generated state specs: the CLI's exit-code contract,
the round trip of the spec text form, the rotational covariance of W and of
the 4D Wigner function, W's agreement with the oracle, and its realness."""

import contextlib
import io
import json
from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylwigner import (KAPPA, CartesianPoint4, CylPoint, StateKind, StateSpec, build_state,
                       default_rule, gauss_hermite, oracle_cyl_from_cartesian,
                       parse_state_spec, rotate_state, serialize_state_spec, wigner_4d,
                       wigner_cyl)
from cylwigner.cli import main
from cylwigner.entangled import amplitude_polynomial
from cylwigner.errors import CylWignerError

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

KINDS = [k.value for k in StateKind] + ["bogus"]
KEYS = ["N", "l0", "l1", "l2", "Nmax", "phi0", "c[0,0]", "c[1,2]", "c[-1,0]", "c[70,0]",
        "c[0]", "kind", "x"]
VALUES = st.one_of(
    st.integers(-80, 80).map(str),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["1e200", "1e-200", "3e-320", "0.8j", "1+", "", "nan", "-inf", "1e400"]),
    st.text(max_size=6),
)
KEYVALUE = st.builds(
    lambda kind, pairs: " ".join([kind] + [f"{k}={v}" for k, v in pairs]),
    st.sampled_from(KINDS), st.lists(st.tuples(st.sampled_from(KEYS), VALUES), max_size=5))
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-80, 80), st.floats(),
                         st.text(max_size=6))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=4),
                           max_leaves=12)
JSON_SPEC = st.builds(
    lambda kind, obj: json.dumps({"kind": kind, **obj}),
    st.sampled_from(KINDS), st.dictionaries(st.sampled_from(KEYS + ["coeffs"]), JSON_VALUES,
                                            max_size=5))

# specs built directly, valid or not; their serialized text feeds the CLI property too
ELL = st.integers(-70, 70)
NMAX = st.integers(0, 80)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SPECS = st.one_of(
    st.builds(lambda n, l: StateSpec(StateKind.EIGENSTATE, {"N": n, "l0": l}), NMAX, ELL),
    st.builds(lambda l, n: StateSpec(StateKind.SUMMED_OAM, {"l0": l, "Nmax": n}), ELL, NMAX),
    st.builds(lambda a, b, p, n: StateSpec(StateKind.SUPERPOSITION,
                                           {"l1": a, "l2": b, "phi0": p, "Nmax": n}),
              ELL, ELL, FINITE, NMAX),
    st.builds(lambda c: StateSpec(StateKind.RAW_COEFFS, {"coeffs": c}),
              st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                              st.complex_numbers(allow_nan=False, allow_infinity=False),
                              min_size=1, max_size=6)),
)

SCHEMA = {"eigenstate": ["N", "l0"], "summed": ["l0", "Nmax"],
          "superposition": ["l1", "l2", "phi0", "Nmax"]}
# the right keys, with values that are often valid
SHAPED = st.sampled_from(sorted(SCHEMA)).flatmap(lambda kind: st.lists(
    st.one_of(st.integers(-80, 80).map(str), VALUES),
    min_size=len(SCHEMA[kind]), max_size=len(SCHEMA[kind])).map(
    lambda vals: " ".join([kind] + [f"{k}={v}" for k, v in zip(SCHEMA[kind], vals)])))
RAW_SHAPED = st.lists(st.tuples(st.integers(-1, 70), st.integers(0, 70), VALUES),
                      min_size=1, max_size=4).map(
    lambda cs: "raw " + " ".join(f"c[{i},{j}]={v}" for i, j, v in cs))
SPEC_TEXT = st.one_of(st.text(max_size=40), KEYVALUE, JSON_SPEC, SHAPED, RAW_SHAPED,
                      SPECS.map(serialize_state_spec))


@PROPERTY
@given(SPEC_TEXT)
def test_every_spec_maps_to_an_exit_code(text):
    argv = ["wigner-cyl", f"--state={text}", "--r-min", "0.5", "--r-max", "1.5",
            "--nr", "1", "--nphi", "1", "--lmax", "0"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3, 4)


@PROPERTY
@given(SPECS)
def test_parse_inverts_serialize(spec):
    try:
        spec.validate()
    except (ValueError, CylWignerError):
        return
    assert parse_state_spec(serialize_state_spec(spec)) == spec


SMALL_RAW = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                            st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
                            min_size=1, max_size=5)
ANGLE = st.floats(0.0, 2 * pi)


@PROPERTY
@given(SMALL_RAW, ANGLE, st.floats(0.3, 2.5), ANGLE, st.integers(-3, 3))
def test_rotation_shifts_phi(coeffs, a, r, phi, ell):
    # exp(i a L) turns W by a: W_rot(r, phi, ell) = W(r, phi + a, ell)
    s = build_state(StateSpec(StateKind.RAW_COEFFS, {"coeffs": coeffs}))
    moved = wigner_cyl(rotate_state(s, a), CylPoint(r, phi, ell))
    still = wigner_cyl(s, CylPoint(r, phi + a, ell))
    assert moved == pytest.approx(still, rel=1e-10, abs=1e-12)


PHASE_POINT = st.floats(-1.5, 1.5)


@pytest.mark.filterwarnings("ignore::cylwigner.errors.TruncationWarning")
@PROPERTY
@given(SMALL_RAW, ANGLE, PHASE_POINT, PHASE_POINT, PHASE_POINT, PHASE_POINT)
def test_rotation_turns_the_4d_wigner(coeffs, a, x, p_x, y, p_y):
    # exp(i a L) turns W by a in both planes: W_rot(P) = W(R(a) P), with R(a) turning
    # (x, y) and (p_x, p_y) together, as phi -> phi + a in test_rotation_shifts_phi
    s = build_state(StateSpec(StateKind.RAW_COEFFS, {"coeffs": coeffs}))
    c, sn = np.cos(a), np.sin(a)
    moved = wigner_4d(rotate_state(s, a), CartesianPoint4(x, p_x, y, p_y))
    still = wigner_4d(s, CartesianPoint4(c * x - sn * y, c * p_x - sn * p_y,
                                         sn * x + c * y, sn * p_x + c * p_y))
    assert moved == pytest.approx(still, rel=1e-10, abs=1e-12)


@PROPERTY
@given(SMALL_RAW, st.floats(0.3, 2.5), ANGLE, st.integers(-3, 3))
def test_wigner_cyl_is_kappa_times_the_oracle(coeffs, r, phi, ell):
    # the two routes to W: the contour-shifted sum and the p_r integral of the 4D Wigner
    s = build_state(StateSpec(StateKind.RAW_COEFFS, {"coeffs": coeffs}))
    pt = CylPoint(r, phi, ell)
    brute = oracle_cyl_from_cartesian(s, pt, gauss_hermite(s.max_total_quanta + 8))
    assert wigner_cyl(s, pt) == pytest.approx(KAPPA * brute, rel=1e-9, abs=1e-12)


@PROPERTY
@given(SMALL_RAW, st.floats(0.3, 2.5), ANGLE, st.integers(-3, 3))
def test_kernel_sum_is_real_before_its_real_part_is_taken(coeffs, r, phi, ell):
    # W is real: the imaginary part of the Gauss-Hermite sum is rounding only
    s = build_state(StateSpec(StateKind.RAW_COEFFS, {"coeffs": coeffs}))
    rule = default_rule(s)
    rp = rule.nodes + 1j * ell / r
    em, ep = np.exp(-1j * phi), np.exp(1j * phi)
    ket = amplitude_polynomial(s, (r + 1j * rp) * em, (r - 1j * rp) * ep)
    bra = np.conj(amplitude_polynomial(s, np.conj((r + 1j * rp) * ep),
                                       np.conj((r - 1j * rp) * em)))
    terms = rule.weights * bra * ket
    scale = max(abs(np.sum(terms)), np.sum(np.abs(terms)))
    assert abs(np.sum(terms).imag) <= 1e-9 * scale
