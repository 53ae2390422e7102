"""Declarative state specifications: parsing, validation, serialization.

Two input grammars are accepted: a compact one-line key=value form,

    eigenstate N=3 l0=1
    summed l0=0 Nmax=20
    superposition l1=3 l2=-3 phi0=0 Nmax=9
    raw c[0,0]=0.6 c[1,1]=0.8j

and a JSON object with a "kind" field and the same parameter names.
Both read their text through one kind lookup, and parsing builds the state
once (``build_state``; ``read_state_spec`` also returns it), so a spec that
parses is a spec that builds: the constructors check their preconditions
(parity, ranges), and ``twomode.state_from_entries`` drops zero entries and
checks the total-quanta bound MAX_TOTAL_ORDER before it allocates the table.  This module only
parses, scales a raw spec's entries and dispatches.
"""

from enum import Enum
from math import isfinite

from ._record import ValueRecord
from .errors import SpecParseError
from .twomode import make_N_l_eigenstate, make_summed_oam, make_superposition, state_from_entries


class StateKind(Enum):
    EIGENSTATE = "eigenstate"
    SUMMED_OAM = "summed"
    SUPERPOSITION = "superposition"
    RAW_COEFFS = "raw"


class StateSpec(ValueRecord):
    _fields = ("kind", "params")

    def __init__(self, kind, params):
        self._store(kind, params)

    def __hash__(self):
        """Consistent with ==: the parameters as a frozenset, a raw table's entries too."""
        p = self.params["coeffs"] if self.kind is StateKind.RAW_COEFFS else self.params
        return hash((self.kind, frozenset(p.items())))


#: Each parameterized kind's constructor and schema, named as the constructor's arguments.
_KINDS = {
    StateKind.EIGENSTATE: (make_N_l_eigenstate, {"N": int, "l0": int}),
    StateKind.SUMMED_OAM: (make_summed_oam, {"l0": int, "Nmax": int}),
    StateKind.SUPERPOSITION: (make_superposition,
                              {"l1": int, "l2": int, "phi0": float, "Nmax": int}),
}


def build_state(spec):
    """Construct the TwoModeFock described by a spec, through its constructor or, for a
    raw spec, ``twomode.state_from_entries``: the one check of a spec's preconditions
    (ValueError naming them) and of its total-quanta bound (OrderBoundError), which an
    oversized spec fails without allocating its table.  A raw table is only divided by its
    largest component, so its norm neither overflows nor underflows.
    """
    if spec.kind in _KINDS:
        return _KINDS[spec.kind][0](**spec.params)
    coeffs = spec.params["coeffs"]
    # scale the real and imaginary parts as floats: |c| overflows for 1e308+1e308j,
    # and a complex division by 3e-320 multiplies by its reciprocal, inf
    big = max(max(abs(c.real), abs(c.imag)) for c in coeffs.values())
    if not big:  # before the division by it
        raise ValueError("raw spec has no nonzero coefficients")
    return state_from_entries({ij: complex(c.real / big, c.imag / big)
                               for ij, c in coeffs.items()})


def _parse_scalar(kind, key, value, col):
    """One schema value, key=value text or a JSON value, as an int or a finite float."""
    # refused, not coerced: a JSON boolean, and a JSON float for an int (int(2.7) is 2)
    refused = isinstance(value, bool) or (kind is int and isinstance(value, float))
    try:
        v = None if refused else kind(value)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v is None or (kind is float and not isfinite(v)):
        raise SpecParseError(f"value for {key} is not a valid finite {kind.__name__}: "
                             f"{value!r}", column=col)
    return v


def _schema_spec(kind, pairs, cols):
    """Spec of a parameterized kind from key -> value; ``cols`` gives error columns."""
    schema = _KINDS[kind][1]
    params = {}
    for key, typ in schema.items():
        if key not in pairs:
            raise SpecParseError(f"{kind.value} spec is missing {key}")
        params[key] = _parse_scalar(typ, key, pairs[key], cols.get(key, 1))
    extra = sorted(set(pairs) - set(schema))
    if extra:
        raise SpecParseError(f"unexpected keys for {kind.value}: {extra}",
                             column=cols.get(extra[0], 1))
    return StateSpec(kind, params)


def _raw_spec(entries):
    """Spec of a raw table from (i, j, coefficient, column) tuples."""
    coeffs = {}
    for i, j, c, col in entries:
        if not all(type(k) is int and k >= 0 for k in (i, j)):
            raise SpecParseError(f"bad raw coefficient indices {i!r}, {j!r}", column=col)
        if not (isfinite(c.real) and isfinite(c.imag)):
            raise SpecParseError(f"raw coefficient c[{i},{j}] is not finite", column=col)
        if (i, j) in coeffs:  # c[0,0] and c[00,0] are one entry
            raise SpecParseError(f"raw coefficient c[{i},{j}] is given twice", column=col)
        coeffs[(i, j)] = c
    if not coeffs:
        raise SpecParseError("raw spec needs at least one coefficient")
    return StateSpec(StateKind.RAW_COEFFS, {"coeffs": coeffs})


def parse_state_spec(text):
    """Parse spec text (key=value line or JSON object) into a StateSpec that builds."""
    return read_state_spec(text)[0]


def read_state_spec(text):
    """``(spec, state)``: spec text parsed as by :func:`parse_state_spec`, and the state that
    its one ``build_state`` call built."""
    stripped = text.strip()
    if not stripped:
        raise SpecParseError("empty state spec")
    spec = _parse_json(stripped) if stripped.startswith("{") else _parse_keyvalue(text)
    return spec, build_state(spec)


def _kind(head, column=1):
    """The StateKind a spec's head names."""
    try:
        return StateKind(head)
    except ValueError:
        raise SpecParseError(f"unknown state kind {head!r}", column=column) from None


def _parse_keyvalue(text):
    tokens = []
    col = 1
    for tok in text.split(" "):
        if tok.strip():
            tokens.append((tok.strip(), col))
        col += len(tok) + 1
    kind = _kind(*tokens[0])

    pairs = {}
    cols = {}
    for tok, col in tokens[1:]:
        if "=" not in tok:
            raise SpecParseError(f"expected key=value, got {tok!r}", column=col)
        key, _, val = tok.partition("=")
        if key in pairs:
            raise SpecParseError(f"duplicate key {key!r}", column=col)
        pairs[key] = val
        cols[key] = col

    if kind is not StateKind.RAW_COEFFS:
        return _schema_spec(kind, pairs, cols)
    entries = []
    for key, val in pairs.items():
        col = cols[key]
        if not (key.startswith("c[") and key.endswith("]")):
            raise SpecParseError(f"raw spec keys must look like c[i,j], got {key!r}",
                                 column=col)
        try:
            i, j = (int(part) for part in key[2:-1].split(","))
            c = complex(val)
        except ValueError:
            raise SpecParseError(f"bad raw coefficient entry {key}={val}",
                                 column=col) from None
        entries.append((i, j, c, col))
    return _raw_spec(entries)


def _parse_json(text):
    import json  # noqa: PLC0415 - the key=value grammar, and so most runs, never need it
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecParseError(f"invalid JSON: {e.msg}", line=e.lineno, column=e.colno) from None
    except (ValueError, RecursionError) as e:  # an over-long integer, or too deep nesting
        raise SpecParseError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecParseError("JSON spec must be an object with a 'kind' field")
    kind = _kind(obj.pop("kind"))
    if kind is not StateKind.RAW_COEFFS:
        return _schema_spec(kind, obj, {})
    items = obj.pop("coeffs", [])
    if obj:
        raise SpecParseError(f"unexpected keys for raw: {sorted(obj)}")
    if not isinstance(items, list):
        raise SpecParseError("raw JSON spec needs a list of [i, j, value] coefficients")
    entries = []
    for item in items:
        try:
            i, j, val = item
            parts = val if isinstance(val, list) else [val]
            c = complex(*parts)
        except (TypeError, ValueError):
            raise SpecParseError(f"bad raw coefficient entry {item!r}") from None
        if any(isinstance(v, bool) for v in parts):  # refused, not read as 1 or 0
            raise SpecParseError(f"bad raw coefficient entry {item!r}")
        entries.append((i, j, c, 1))
    return _raw_spec(entries)


def serialize_state_spec(spec):
    """Canonical one-line text form; parse(serialize(s)) == s."""
    if spec.kind is StateKind.RAW_COEFFS:
        parts = [f"c[{i},{j}]={_fmt_complex(c)}"
                 for (i, j), c in sorted(spec.params["coeffs"].items())]
        return "raw " + " ".join(parts)
    schema = _KINDS[spec.kind][1]
    parts = [f"{key}={_fmt_num(spec.params[key])}" for key in schema]
    return f"{spec.kind.value} " + " ".join(parts)


def _fmt_num(v):
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _fmt_complex(c):
    c = complex(c)
    return f"{c.real!r}{c.imag:+}j".replace("+-", "-") if c.imag else repr(c.real)
