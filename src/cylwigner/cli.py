"""Command-line surface: the W(r, phi, ell) grid export and the oracle check.

Exit codes: 0 success, 2 spec parse error, 3 precondition violation,
4 numerical-contract failure (a tolerance, or a state past MAX_TOTAL_ORDER).
Output is byte-deterministic for fixed inputs.
"""

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cylindrical import (DEFAULT_R_MIN, KAPPA, CylPoint, default_rule,
                          oracle_cyl_from_cartesian, wigner_cyl, wigner_cyl_grid)
from .errors import CylWignerError, SpecParseError
from .statespec import build_state, parse_state_spec, serialize_state_spec

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_TOLERANCE = 4

ORACLE_SPREAD_TOL = 1e-6
#: oracle-check draws r uniformly from this range and ell from -span..span
ORACLE_R_RANGE = (0.5, 2.2)
ORACLE_ELL_SPAN = 3
#: Largest grid that wigner-cyl evaluates, in points: about 110 times the default
#: 64 x 64 x 11 grid, where a JSON export, or every point on the phi axis, peaks
#: near 0.6 GiB resident.  A larger grid is refused before anything is allocated.
MAX_GRID_POINTS = 5_000_000


@dataclass(frozen=True)
class GridRequest:
    """Validated grid axes of a CLI run."""

    r_min: float
    r_max: float
    n_r: int
    n_phi: int
    ell_min: int
    ell_max: int

    def __post_init__(self):
        for name in ("r_min", "r_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.r_min <= 0:
            raise ValueError("r_min must be strictly positive (r = 0 is excluded)")
        if self.r_max <= self.r_min:
            raise ValueError("r_max must exceed r_min")
        if self.n_r < 1 or self.n_phi < 1:
            raise ValueError("grid must have at least one node per axis")
        if self.ell_min > self.ell_max:
            raise ValueError("ell_min must not exceed ell_max")
        n_points = self.n_r * self.n_phi * (self.ell_max - self.ell_min + 1)
        if n_points > MAX_GRID_POINTS:
            raise ValueError(f"grid of {n_points} points exceeds {MAX_GRID_POINTS}")

    def axes(self):
        r = np.linspace(self.r_min, self.r_max, self.n_r)
        phi = np.linspace(0.0, 2.0 * np.pi, self.n_phi, endpoint=False)
        # from a range of Python ints: arange's stop ell_max + 1 overflows at 2^63 - 1
        ell = np.array(range(self.ell_min, self.ell_max + 1))
        return r, phi, ell


def _fmt(v):
    return f"{v:.17g}"


#: Rows per write of the CSV writer: a default export writes each r node's
#: rows at once, and a long phi or ell axis is written in slices of this many.
_CSV_ROWS = 1 << 12


def write_grid_csv(fh, spec, quad_order, grid):
    # each axis value is formatted once, not once per row
    r = [_fmt(v) for v in grid.r_nodes]
    phi = [_fmt(v) for v in grid.phi_nodes]
    ell = [str(int(v)) for v in grid.ell_values]
    fh.write(f"# cylwigner-grid v{__version__}\n")
    fh.write(f"# state: {serialize_state_spec(spec)}\n")
    fh.write(f"# quad_order: {quad_order}\n")
    fh.write("# r_nodes: " + " ".join(r) + "\n")
    fh.write("# phi_nodes: " + " ".join(phi) + "\n")
    fh.write("# ell_values: " + " ".join(ell) + "\n")
    fh.write("# columns: r,phi,ell,W\n")
    n_ell = len(ell)
    for rv, plane in zip(r, grid.values.reshape(len(r), -1)):
        for lo in range(0, plane.size, _CSV_ROWS):
            fh.write("".join(f"{rv},{phi[q // n_ell]},{ell[q % n_ell]},{_fmt(v)}\n"
                             for q, v in enumerate(plane[lo:lo + _CSV_ROWS].tolist(), lo)))


def write_grid_json(fh, spec, quad_order, grid):
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


def cmd_wigner_cyl(spec, state, req, out_path, fmt="csv"):
    grid = wigner_cyl_grid(state, *req.axes())
    order = default_rule(state).order
    writer = write_grid_csv if fmt == "csv" else write_grid_json
    if out_path in (None, "-"):
        writer(sys.stdout, spec, order, grid)
    else:
        with open(out_path, "w") as fh:
            writer(fh, spec, order, grid)
    return EXIT_OK


def cmd_oracle_check(state, n_points=10, seed=0):
    """Compare the two evaluation routes at random points; report the ratios."""
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    rng = np.random.default_rng(seed)
    rule = default_rule(state)
    ratios = []
    for _ in range(n_points):
        pt = CylPoint(rng.uniform(*ORACLE_R_RANGE), rng.uniform(0, 2 * np.pi),
                      int(rng.integers(-ORACLE_ELL_SPAN, ORACLE_ELL_SPAN + 1)))
        direct = wigner_cyl(state, pt)
        brute = oracle_cyl_from_cartesian(state, pt, rule)
        if abs(brute) < 1e-12:
            print(f"r={pt.r:.4f} phi={pt.phi:.4f} ell={pt.ell:+d}  "
                  "skipped (both routes vanish)")
            continue
        ratio = direct / brute
        ratios.append(ratio)
        print(f"r={pt.r:.4f} phi={pt.phi:.4f} ell={pt.ell:+d}  ratio={ratio:.12f}")
    if not ratios:
        print("no usable points")
        return EXIT_TOLERANCE
    ratios = np.array(ratios)
    spread = (ratios.max() - ratios.min()) / abs(ratios.mean())
    ok = spread <= ORACLE_SPREAD_TOL
    print(f"kappa={ratios.mean():.12f} (reference {KAPPA:.12f}) "
          f"spread={spread:.3e} -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_TOLERANCE


def _error_record(code, exc):
    return json.dumps({"error": type(exc).__name__, "exit": code, "message": str(exc)})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cylwigner",
        description="Cylindrical-coordinate Wigner functions of two-mode OAM states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--state", required=True,
                        help='state spec, e.g. "eigenstate N=3 l0=1" or JSON')

    g = sub.add_parser("wigner-cyl", parents=[common],
                       help="evaluate W(r, phi, ell) on a grid and export it")
    g.add_argument("--r-min", type=float, default=DEFAULT_R_MIN)
    g.add_argument("--r-max", type=float, default=6.0)
    g.add_argument("--nr", type=int, default=64)
    g.add_argument("--nphi", type=int, default=64)
    g.add_argument("--lmax", type=int, default=5)
    g.add_argument("--lmin", type=int, default=None,
                   help="lowest ell (default -lmax)")
    g.add_argument("--format", choices=["csv", "json"], default="csv")
    g.add_argument("--out", default="-", help="output path, '-' for stdout")

    o = sub.add_parser("oracle-check", parents=[common],
                       help="cross-check the transform against the brute-force route")
    o.add_argument("--n-points", type=int, default=10)
    o.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        spec = parse_state_spec(args.state)
        state = build_state(spec)
        if args.command == "wigner-cyl":
            req = GridRequest(args.r_min, args.r_max, args.nr, args.nphi,
                              args.lmin if args.lmin is not None else -args.lmax,
                              args.lmax)
            return cmd_wigner_cyl(spec, state, req, args.out, args.format)
        return cmd_oracle_check(state, args.n_points, args.seed)
    except SpecParseError as e:
        print(_error_record(EXIT_PARSE, e), file=sys.stderr)
        return EXIT_PARSE
    except ValueError as e:
        print(_error_record(EXIT_PRECONDITION, e), file=sys.stderr)
        return EXIT_PRECONDITION
    except CylWignerError as e:
        print(_error_record(EXIT_TOLERANCE, e), file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
