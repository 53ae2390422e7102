"""Correctness checks on the program's outputs.

Each check returns a list of problems (empty when the output passes).
None of them compares against stored output of the program: they test
properties the method must have, closed forms, or values from
``reference.py``.
"""

import json
from math import exp, pi, sqrt

import numpy as np

KAPPA = 4.0 * pi ** 2
#: wigner_cyl / oracle must equal KAPPA to this relative tolerance.
KAPPA_RTOL = 1e-6
#: Below this |W| the ratio is not formed; the difference is compared instead.
KAPPA_ATOL = 1e-12
#: Vacuum points against 4 sqrt(pi) exp(-r^2 - ell^2/r^2).
VACUUM_RTOL = 1e-10
#: Program against the mpmath reference: |W - ref| <= RTOL |ref| + ATOL scale,
#: scale being the largest |W| of the output checked.  RTOL is the ratio
#: tolerance above.  Over every kernel point marginals-summed can draw
#: (summed l0=0, Nmax=20), the program is off by up to 2.2e-6 relative and
#: 4.5e-11 absolute (r=1.54, ell=6, W=2.1e-5), so tighter tolerances fail on
#: some seeds; the probes at Nmax >= 30 are off by 3e-3 relative and more.
REF_RTOL = 1e-6
REF_ATOL = 1e-9
#: A phi row's harmonics outside the allowed set, and the spread of a row
#: that must be flat, relative to the largest |W| of the row plus
#: ROW_FLOOR times the largest |W| of the grid.
HARMONIC_TOL = 1e-9
FLAT_TOL = 1e-12
ROW_FLOOR = 1e-12
#: e^-x is below the smallest normal double for x above this.
UNDERFLOW_EXPO = 708.39


def parse_spec_text(text):
    """'kind k=v ...' -> (kind, {k: float(v)}), parsed apart from the program."""
    kind, *pairs = text.split()
    params = {}
    for pair in pairs:
        key, _, val = pair.partition("=")
        params[key] = float(val)
    return kind, params


def read_csv(path):
    """Header fields and data rows of a wigner-cyl CSV export."""
    header = {}
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        header["format"] = first[2:] if first.startswith("# ") else first
        for line in fh:
            if not line.startswith("# "):
                break
            key, _, val = line[2:].rstrip("\n").partition(": ")
            header[key] = val
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return header, data


def grid_from_csv(header, data):
    """(axes, values[r, phi, ell], problems) from a parsed CSV export."""
    problems = []
    try:
        r = np.array([float(v) for v in header["r_nodes"].split()])
        phi = np.array([float(v) for v in header["phi_nodes"].split()])
        ell = np.array([int(v) for v in header["ell_values"].split()])
    except (KeyError, ValueError) as e:
        return None, None, [f"header axes unreadable: {e!r}"]
    if header.get("columns") != "r,phi,ell,W":
        problems.append(f"unexpected columns line {header.get('columns')!r}")
    shape = (len(r), len(phi), len(ell))
    if data.shape != (np.prod(shape), 4):
        return None, None, problems + [f"data shape {data.shape}, axes give {shape}"]
    rr, pp, ll = np.meshgrid(r, phi, ell, indexing="ij")
    if not (np.array_equal(data[:, 0], rr.ravel()) and np.array_equal(data[:, 1], pp.ravel())
            and np.array_equal(data[:, 2], ll.ravel())):
        problems.append("data rows are not the header axes in r, phi, ell order")
    return (r, phi, ell), data[:, 3].reshape(shape), problems


def read_json_grid(path):
    """(header, axes, values[r, phi, ell], problems) from a wigner-cyl JSON export."""
    with open(path) as fh:
        doc = json.load(fh)
    problems = []
    try:
        r = np.array([float(v) for v in doc["r_nodes"]])
        phi = np.array([float(v) for v in doc["phi_nodes"]])
        ell = np.array([int(v) for v in doc["ell_values"]])
        values = np.array([[[float(v) for v in row] for row in plane]
                           for plane in doc["values"]])
    except (KeyError, TypeError, ValueError) as e:
        return doc, None, None, [f"JSON export unreadable: {e!r}"]
    if values.shape != (len(r), len(phi), len(ell)):
        problems.append(f"values shape {values.shape} does not match the axes")
    header = {k: str(v) for k, v in doc.items() if k not in ("values",)}
    return header, (r, phi, ell), values, problems


def check_header(header, axes, spec_text, want_axes, quad_order):
    """The header echoes the requested state, axes and quadrature order."""
    problems = []
    if not str(header.get("format", "")).startswith("cylwigner-grid"):
        problems.append(f"format line {header.get('format')!r}")
    try:
        got = parse_spec_text(header["state"])
    except (KeyError, ValueError):
        got = None
    if got != parse_spec_text(spec_text):
        problems.append(f"header state {header.get('state')!r} does not echo {spec_text!r}")
    if str(header.get("quad_order")) != str(quad_order):
        problems.append(f"header quad_order {header.get('quad_order')!r}, want {quad_order}")
    if axes is None:
        return problems + ["no axes"]
    for name, got_ax, want_ax in zip(("r", "phi", "ell"), axes, want_axes):
        if got_ax.shape != want_ax.shape or not np.array_equal(got_ax, want_ax):
            problems.append(f"header {name} axis does not echo the requested axis")
    return problems


def check_finite(values):
    bad = int(np.count_nonzero(~np.isfinite(values)))
    return [f"{bad} non-finite values"] if bad else []


def _row_scale(values):
    """Per-(r, ell) scale: the row's largest |W| plus a floor from the whole grid."""
    mag = np.abs(values)
    return mag.max(axis=1) + ROW_FLOOR * mag.max()


def check_harmonics(values, allowed):
    """Each (r, ell) row over the uniform phi axis holds only the allowed harmonics."""
    n_phi = values.shape[1]
    spec = np.fft.fft(values, axis=1) / n_phi
    freqs = np.rint(np.fft.fftfreq(n_phi, d=1.0 / n_phi)).astype(int)
    keep = np.isin(np.abs(freqs), sorted(allowed))
    stray = np.abs(spec[:, ~keep, :]).max(axis=1)
    ratio = stray / _row_scale(values)
    worst = np.unravel_index(np.argmax(ratio), ratio.shape)
    if ratio[worst] > HARMONIC_TOL:
        return [f"row (r index {worst[0]}, ell index {worst[1]}) has harmonics outside "
                f"{sorted(allowed)}: {ratio[worst]:.2e} of its scale (tol {HARMONIC_TOL})"]
    return []


def check_phi_flat(values):
    """Each (r, ell) row is independent of phi."""
    ratio = np.ptp(values, axis=1) / _row_scale(values)
    worst = np.unravel_index(np.argmax(ratio), ratio.shape)
    if ratio[worst] > FLAT_TOL:
        return [f"row (r index {worst[0]}, ell index {worst[1]}) varies with phi: "
                f"{ratio[worst]:.2e} of its scale (tol {FLAT_TOL})"]
    return []


def check_zeros_underflow(values, r, ell):
    """Exact zeros only where the envelope e^(-r^2 - ell^2/r^2) underflows."""
    expo = r[:, None, None] ** 2 + (ell[None, None, :] / r[:, None, None]) ** 2
    expo = np.broadcast_to(expo, values.shape)
    bad = (values == 0.0) & (expo < UNDERFLOW_EXPO)
    if bad.any():
        i, j, k = np.argwhere(bad)[0]
        return [f"{int(bad.sum())} exact zeros where the envelope does not underflow, "
                f"first at r={r[i]!r} ell={ell[k]}"]
    return []


def count_local_maxima(profile):
    p = np.asarray(profile)
    return int(np.sum((p[1:-1] > p[:-2]) & (p[1:-1] > p[2:])))


def check_rings(profile, need=3):
    n = count_local_maxima(profile)
    return [] if n >= need else [f"radial profile has {n} local maxima, need >= {need}"]


def check_angle_curve(values, harmonic=6):
    """Evenly spaced samples: dominant harmonic as given, strictly negative somewhere."""
    v = np.asarray(values)
    amps = np.abs(np.fft.rfft(v))
    dominant = int(np.argmax(amps[1:])) + 1
    problems = []
    if dominant != harmonic:
        problems.append(f"angle-OAM curve's dominant harmonic is {dominant}, want {harmonic}")
    if not v.min() < -1e-6 * np.abs(v).max():
        problems.append(f"angle-OAM curve is not strictly negative anywhere (min {v.min():.3e})")
    return problems


def check_kappa(direct, oracle, where=""):
    """wigner_cyl / oracle == KAPPA within KAPPA_RTOL, or both below KAPPA_ATOL."""
    if abs(direct) <= KAPPA_ATOL and abs(KAPPA * oracle) <= KAPPA_ATOL:
        return []
    if oracle == 0.0 or abs(direct / oracle / KAPPA - 1.0) > KAPPA_RTOL:
        ratio = direct / oracle if oracle else float("inf")
        return [f"{where}: wigner_cyl/oracle = {ratio!r}, want {KAPPA!r} "
                f"within {KAPPA_RTOL} relative"]
    return []


def check_vacuum(value, r, ell, where=""):
    want = 4.0 * sqrt(pi) * exp(-r * r - ell * ell / (r * r))
    if abs(value - want) > VACUUM_RTOL * abs(want):
        return [f"{where}: vacuum W = {value!r}, closed form {want!r}"]
    return []


def check_reference(value, ref, scale, where=""):
    """Program value against the mpmath reference, scale being max |W| of the output."""
    if not abs(value - ref) <= REF_RTOL * abs(ref) + REF_ATOL * scale:
        return [f"{where}: W = {value!r}, reference {ref!r}"]
    return []
