"""The package's immutable records: fields read-only, equality by value or identity.

CylPoint, EntangledArg and StateSpec are values: equal fields make equal objects
with equal hashes.  The four types that hold arrays compare and hash by identity,
since field-wise == would compare arrays; test_cylindrical's
``test_objects_holding_arrays_compare_and_hash_by_identity`` checks that.
"""

from math import pi, sqrt

import numpy as np
import pytest

from cylwigner import (CartesianPoint4, CylGrid, CylPoint, EntangledArg, QuadKind,
                       QuadratureRule, StateKind, StateSpec, TwoModeFock)

#: type -> (maker of an instance, maker of one with other values, for the value types)
RECORDS = {
    CylPoint: (lambda: CylPoint(1.5, 0.25, -2), lambda: CylPoint(1.5, 0.25, 2)),
    EntangledArg: (lambda: EntangledArg(0.5 + 1j, 0.25), lambda: EntangledArg(0.5 + 1j)),
    StateSpec: (lambda: StateSpec(StateKind.EIGENSTATE, {"N": 2, "l0": 0}),
                lambda: StateSpec(StateKind.EIGENSTATE, {"N": 2, "l0": 2})),
    TwoModeFock: (lambda: TwoModeFock(np.array([[1.0]])), None),
    QuadratureRule: (lambda: QuadratureRule(QuadKind.GAUSS_HERMITE, 1, np.array([0.0]),
                                            np.array([sqrt(pi)])), None),
    CylGrid: (lambda: CylGrid(np.array([1.0]), np.array([0.0]), np.array([0]),
                              np.zeros((1, 1, 1))), None),
    CartesianPoint4: (lambda: CartesianPoint4(0.0, 0.5, 1.0, 1.5), None),
}
VALUE_TYPES = [t for t, (_, other) in RECORDS.items() if other is not None]


def _fields(record):
    return [f for f in vars(record) if not f.startswith("_")]


@pytest.mark.parametrize("kind", RECORDS, ids=lambda t: t.__name__)
def test_fields_cannot_be_assigned_or_deleted(kind):
    record = RECORDS[kind][0]()
    for name in _fields(record) + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _fields(record)  # the loop above tried real fields


@pytest.mark.parametrize("kind", VALUE_TYPES, ids=lambda t: t.__name__)
def test_value_types_compare_and_hash_by_value(kind):
    make, make_other = RECORDS[kind]
    a, b, other = make(), make(), make_other()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert a != other and other != a and len({a, b, other}) == 2
    # another type with the same values is not equal, a subclass included
    assert a != tuple(vars(a).values()) and a != type("Sub", (kind,), {})(*vars(a).values())



def test_records_keep_their_signatures_and_repr():
    assert EntangledArg(xi=1j) == EntangledArg(1j, 0.0) == EntangledArg(1j, phi=2 * pi)
    assert CylPoint(r=2, phi=-0.0, ell=np.int64(3)) == CylPoint(2.0, 0.0, 3)
    assert repr(CylPoint(2, 0.5, -1)) == "CylPoint(r=2.0, phi=0.5, ell=-1)"
    assert repr(EntangledArg(1j)) == "EntangledArg(xi=1j, phi=0.0)"
    spec = StateSpec(kind=StateKind.SUMMED_OAM, params={"l0": 0, "Nmax": 4})
    assert repr(spec) == "StateSpec(kind=<StateKind.SUMMED_OAM: 'summed'>, " \
                         "params={'l0': 0, 'Nmax': 4})"
    for bad in (lambda: CylPoint(0.0, 0.0, 0), lambda: EntangledArg(np.inf),
                lambda: TwoModeFock(np.ones((2, 2))), lambda: CartesianPoint4(np.nan, 0, 0, 0)):
        with pytest.raises(ValueError):
            bad()


def test_cached_properties_of_a_state_are_computed_once():
    s = TwoModeFock(np.array([[0.6, 0.0], [0.0, 0.8j]]))
    table = s.amplitude_table
    assert s.amplitude_table is table and s.max_total_quanta == 2
    with pytest.raises(AttributeError):
        s.amplitude_table = None
