import json
import tracemalloc

import numpy as np
import pytest

from cylwigner import (StateKind, build_state, make_N_l_eigenstate, make_summed_oam,
                       make_superposition, parse_state_spec, serialize_state_spec)
from cylwigner.errors import OrderBoundError, SpecParseError
from cylwigner.specfun import MAX_TOTAL_ORDER


def test_parse_eigenstate():
    spec = parse_state_spec("eigenstate N=3 l0=1")
    assert spec.kind is StateKind.EIGENSTATE
    assert spec.params == {"N": 3, "l0": 1}
    assert np.array_equal(build_state(spec).coeffs,
                          make_N_l_eigenstate(3, 1).coeffs)


def test_parse_summed_and_superposition():
    spec = parse_state_spec("summed l0=0 Nmax=20")
    assert np.array_equal(build_state(spec).coeffs,
                          make_summed_oam(0, 20).coeffs)
    spec = parse_state_spec("superposition l1=3 l2=-3 phi0=0 Nmax=9")
    assert np.array_equal(build_state(spec).coeffs,
                          make_superposition(3, -3, 0.0, 9).coeffs)


def test_parse_raw():
    spec = parse_state_spec("raw c[0,0]=0.6 c[1,1]=0.8j")
    s = build_state(spec)
    assert s.coeffs[0, 0] == pytest.approx(0.6)
    assert s.coeffs[1, 1] == pytest.approx(0.8j)
    assert abs(np.linalg.norm(s.coeffs) - 1) <= 1e-10


def test_parse_json_forms():
    spec = parse_state_spec('{"kind": "eigenstate", "N": 2, "l0": 0}')
    assert spec.params == {"N": 2, "l0": 0}
    spec = parse_state_spec('{"kind": "raw", "coeffs": [[0, 0, "1"]]}')
    assert build_state(spec).coeffs[0, 0] == 1.0


def test_parse_errors_carry_position():
    with pytest.raises(SpecParseError) as e:
        parse_state_spec("bogus N=1")
    assert e.value.column == 1
    with pytest.raises(SpecParseError) as e:
        parse_state_spec("eigenstate N=x l0=0")
    assert e.value.column == 12
    with pytest.raises(SpecParseError):
        parse_state_spec("")
    with pytest.raises(SpecParseError):
        parse_state_spec("{not json")


def test_parse_rejects_malformed_pairs():
    with pytest.raises(SpecParseError):
        parse_state_spec("eigenstate N=3 l0=1 l0=1")
    with pytest.raises(SpecParseError):
        parse_state_spec("eigenstate N=3 junk")
    with pytest.raises(SpecParseError):
        parse_state_spec("eigenstate N=3")
    with pytest.raises(SpecParseError):
        parse_state_spec("eigenstate N=3 l0=1 extra=2")
    with pytest.raises(SpecParseError):
        parse_state_spec("raw notakey=1")


def test_semantic_error_names_parity():
    with pytest.raises(ValueError, match="parity"):
        parse_state_spec("eigenstate N=3 l0=2")
    with pytest.raises(ValueError, match="range"):
        parse_state_spec("summed l0=5 Nmax=3")


def test_round_trip_identity():
    texts = [
        "eigenstate N=3 l0=1",
        "summed l0=0 Nmax=20",
        "superposition l1=3 l2=-3 phi0=0.25 Nmax=9",
        "raw c[0,0]=0.6 c[1,1]=0.8j",
        "raw c[2,1]=-0.5-0.5j c[0,0]=1",
    ]
    for text in texts:
        spec = parse_state_spec(text)
        again = parse_state_spec(serialize_state_spec(spec))
        assert again == spec
        # serialization is canonical: a second round trip is a fixed point
        assert serialize_state_spec(again) == serialize_state_spec(spec)


def test_specs_hash_consistently_with_equality():
    # equal specs hash equal: -0.0 == 0.0, and a raw table is a dict of entries
    pairs = [("summed l0=0 Nmax=8", "summed Nmax=8 l0=0"),
             ("superposition l1=3 l2=-3 phi0=0.0 Nmax=9",
              "superposition l1=3 l2=-3 phi0=-0.0 Nmax=9"),
             ("raw c[0,0]=0.6 c[1,2]=0.8j",
              '{"kind": "raw", "coeffs": [[1, 2, [0, 0.8]], [0, 0, 0.6]]}')]
    seen = {}
    for a, b in pairs:
        spec, same = parse_state_spec(a), parse_state_spec(b)
        assert spec == same and hash(spec) == hash(same)
        seen[spec] = a
        assert seen[same] == a
    assert len(seen) == 3
    assert len({parse_state_spec(t) for pair in pairs for t in pair}) == 3
    assert parse_state_spec("summed l0=0 Nmax=10") not in seen


def test_json_error_reports_location():
    with pytest.raises(SpecParseError) as e:
        parse_state_spec('{"kind": "eigenstate", "N": }')
    assert e.value.line == 1
    assert e.value.column > 1


@pytest.mark.parametrize("c", ["1e200", "1e-200", "3e-320", "1e308+1e308j", "-2.5j"])
def test_raw_norm_neither_overflows_nor_underflows(c):
    # each is the vacuum, whatever the scale of its one coefficient
    s = build_state(parse_state_spec(f"raw c[0,0]={c}"))
    assert abs(s.coeffs[0, 0]) == pytest.approx(1.0, abs=1e-15)
    assert s.coeffs.shape == (1, 1)


@pytest.mark.parametrize("text", [
    "raw c[0,0]=1e308 c[40,0]=1e-300",
    '{"kind": "raw", "coeffs": [[0, 0, 1e308], [40, 0, [0, 1e-300]]]}',
])
def test_entry_flushed_by_the_scaling_does_not_size_the_table(text):
    # 1e-300 / 1e308 is zero: the vacuum, in a 1 x 1 table
    s = build_state(parse_state_spec(text))
    assert s.cutoff == 0 and s.max_total_quanta == 0
    assert s.coeffs[0, 0] == 1.0


def test_raw_rejects_all_zero():
    with pytest.raises(ValueError):
        parse_state_spec("raw c[0,0]=0")
    with pytest.raises(ValueError):
        parse_state_spec("raw c[100000000,0]=0")


@pytest.mark.parametrize("text", [
    "eigenstate N=3000 l0=0",                       # a 1501 x 1501 table if built
    "eigenstate N=60000 l0=0",                      # 13.4 GiB (left untouched by zeros)
    "summed l0=0 Nmax=5000",
    "superposition l1=1 l2=-1 phi0=0 Nmax=4001",
    "raw c[100000000,0]=1",
    '{"kind": "raw", "coeffs": [[0, 0, "1"], [40, 21, "1"]]}',
])
def test_oversized_spec_rejected_before_allocating(text):
    tracemalloc.start()
    try:
        with pytest.raises(OrderBoundError):
            parse_state_spec(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_order_bound_is_on_total_quanta():
    # Nmax = MAX + 1 only reaches MAX quanta with this parity; it builds
    s = build_state(parse_state_spec(f"summed l0=0 Nmax={MAX_TOTAL_ORDER + 1}"))
    assert s.max_total_quanta == MAX_TOTAL_ORDER
    # a zero entry past the bound neither counts nor sizes the table
    s = build_state(parse_state_spec("raw c[0,0]=1 c[100000000,0]=0"))
    assert s.coeffs.shape == (1, 1)
    # precondition errors keep precedence over the bound
    with pytest.raises(ValueError, match="parity"):
        parse_state_spec(f"eigenstate N={MAX_TOTAL_ORDER + 1} l0=0")
    with pytest.raises(ValueError, match="range"):
        parse_state_spec("summed l0=101 Nmax=100")
    with pytest.raises(ValueError, match="range"):  # l1 alone would pass the range, not the bound
        parse_state_spec("superposition l1=0 l2=100 phi0=0 Nmax=70")


@pytest.mark.parametrize("text", [
    '{"kind": "raw", "coeffs": 5}',                       # not a list
    '{"kind": "raw", "coeffs": [[-1, 0, "1"], [0, 0, "1"]]}',  # negative index
    '{"kind": "eigenstate", "N": 2.7, "l0": 0}',           # float for an int
    '{"kind": "eigenstate", "N": true, "l0": 1}',          # boolean for an int
    '{"kind": "eigenstate", "N": 2, "l0": 0, "M": 1}',     # unknown key
    "raw c[0,0]=nan c[1,1]=1",                             # non-finite coefficient
    "superposition l1=3 l2=-3 phi0=nan Nmax=9",            # non-finite parameter
    "raw c[0,0]=0.6 c[00,0]=0.8",                          # one entry given twice
    '{"kind": "raw", "coeffs": [[0, 0, 0.6], [0, 0, 0.8]]}',  # one entry given twice
    '{"kind": "raw", "coeffs": [[0, 0, true]]}',           # boolean coefficient
    '{"kind": "raw", "coeffs": [[0, 0, [true, false]]]}',  # boolean parts
    pytest.param('{"kind": "raw", "coeffs": ' + "[" * 100000 + "]" * 100000 + "}",
                 id="json-nesting-too-deep"),
    pytest.param('{"kind": "eigenstate", "N": ' + "1" * 5000 + ', "l0": 0}',
                 id="json-int-past-digit-limit"),
])
def test_spec_holes_rejected(text):
    with pytest.raises(SpecParseError):
        parse_state_spec(text)


def test_json_missing_kind():
    with pytest.raises(SpecParseError):
        parse_state_spec(json.dumps({"N": 2}))
