"""Set-up phase of an in-process workload, run in a fresh interpreter to time it.

    python3 perfbench/setup_probe.py <workload>

imports cylwigner from src/, parses and builds the workload's states and
builds the quadrature rules its timed operations are handed, then exits.
run.py times the whole process, from interpreter start to exit, as
``setup_s``.  The export workloads time the wigner-cyl process itself
instead (see workloads.setup_command).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Mapped Gauss-Legendre radial rule of the angle-OAM marginal.
ANGLE_RULE = (96, 1e-6, 9.0)

#: The states each in-process workload builds (spec text) and the rule its
#: operations are handed for each: "angle" is ANGLE_RULE, "oracle" the
#: Gauss-Hermite rule of oracle_cyl_from_cartesian (quanta + 8), None no
#: rule (marginal_radial and wigner_cyl without a rule build their own).
SETUP = {
    "marginals-summed": [("summed l0=0 Nmax=20", None),
                         ("superposition l1=3 l2=-3 phi0=0 Nmax=9", "angle")],
    "crosscheck": [("eigenstate N=0 l0=0", "oracle"), ("eigenstate N=2 l0=0", "oracle"),
                   ("eigenstate N=3 l0=-1", "oracle"), ("summed l0=0 Nmax=8", "oracle"),
                   ("summed l0=2 Nmax=10", "oracle"),
                   ("superposition l1=3 l2=-3 phi0=0.4 Nmax=9", "oracle"),
                   ("summed l0=0 Nmax=30", None), ("summed l0=0 Nmax=40", None)],
}


def build(workload):
    """Parse and build the workload's states and rules; returns {spec: (state, rule)}."""
    from cylwigner.quadrature import gauss_hermite, gauss_legendre_mapped  # noqa: PLC0415
    from cylwigner.statespec import build_state, parse_state_spec  # noqa: PLC0415

    out = {}
    for text, kind in SETUP[workload]:
        state = build_state(parse_state_spec(text))
        if kind == "angle":
            rule = gauss_legendre_mapped(*ANGLE_RULE)
        elif kind == "oracle":
            rule = gauss_hermite(state.max_total_quanta + 8)
        else:
            rule = None
        out[text] = (state, rule)
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    build(sys.argv[1])
