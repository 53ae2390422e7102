"""High-precision reference values of W(r, phi, ell), independent of the program.

The transform is

    W(r, phi, ell) = 4 Int Psi*(r - ir', phi) Psi(r + ir', phi) exp(2i ell r'/r) dr'

with Psi(xi, phi) = <xi e^{-i phi}|s> and, for one Fock entry,
<xi|n+, n-> = exp(-|xi|^2/2) H_{n-,n+}(xi, xi*) / sqrt(n+! n-!).

For real r' the envelopes multiply to exp(-r^2 - r'^2), and everything
else is a polynomial P(r') = conj(K)(-r') K(r'), where K(r') is the
wavefunction polynomial at xi = r + ir'.  Completing the square turns
exp(-r'^2 + 2i a r') into exp(-a^2) exp(-(r' - ia)^2) with a = ell/r, and
after the shift r' = t + ia each monomial integrates in closed form:

    Int (t + ia)^k exp(-t^2) dt = sum_j C(k, j) (ia)^(k-j) Gamma((j+1)/2) [j even].

All of it runs in mpmath at a chosen number of digits.  The bivariate
Hermite polynomials come from their three-term recurrence (the program
uses the explicit sum), and only the state's coefficient table is read
from the program.

Run as a script to regenerate the stored accuracy-probe values:

    python3 perfbench/reference.py > perfbench/probe_reference.json
"""

import json
import sys
from pathlib import Path

import mpmath as mp


def _polymul(p, q):
    out = [mp.mpc(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _axpy_linear(c0, c1, p, scale, q):
    """(c0 + c1 r') p(r') - scale q(r'), as a coefficient list."""
    out = [mp.mpc(0)] * (len(p) + 1)
    for k, a in enumerate(p):
        out[k] += c0 * a
        out[k + 1] += c1 * a
    for k, b in enumerate(q):
        out[k] -= scale * b
    return out


def _wavefunction_poly(coeffs, r, phi):
    """K(r') = sum c[n+, n-] H_{n-,n+}(lam, lam_bar) / sqrt(n+! n-!), lam = (r + ir') e^{-i phi}."""
    em = mp.expj(-phi)
    ep = mp.expj(phi)
    lam = (r * em, 1j * em)            # lam = c0 + c1 r'
    lam_bar = (r * ep, -1j * ep)       # its complex conjugate for real r'
    support = [(i, j, mp.mpc(complex(c))) for (i, j), c in coeffs.items()]
    m_max = max(j for _, j, _ in support)   # first Hermite index is n-
    n_max = max(i for i, _, _ in support)
    # H[m][n] by H_{m+1,n} = lam H_{m,n} - n H_{m,n-1} and
    # H_{m,n+1} = lam_bar H_{m,n} - m H_{m-1,n}
    H = [[None] * (n_max + 1) for _ in range(m_max + 1)]
    H[0][0] = [mp.mpc(1)]
    for m in range(m_max + 1):
        if m > 0:
            H[m][0] = _axpy_linear(lam[0], lam[1], H[m - 1][0], 0, [])
        for n in range(1, n_max + 1):
            prev = H[m - 1][n - 1] if m > 0 else []
            H[m][n] = _axpy_linear(lam_bar[0], lam_bar[1], H[m][n - 1], m, prev)
    poly = [mp.mpc(0)] * (m_max + n_max + 1)
    for n_plus, n_minus, c in support:
        scale = c / mp.sqrt(mp.factorial(n_plus) * mp.factorial(n_minus))
        for k, a in enumerate(H[n_minus][n_plus]):
            poly[k] += scale * a
    return poly


def _shifted_moments(a, degree):
    """S_k = Int (t + ia)^k exp(-t^2) dt for k = 0..degree."""
    ia = mp.mpc(0, a)
    gam = [mp.gamma(mp.mpf(j + 1) / 2) if j % 2 == 0 else mp.mpf(0)
           for j in range(degree + 1)]
    return [sum(mp.binomial(k, j) * ia ** (k - j) * gam[j] for j in range(0, k + 1, 2))
            for k in range(degree + 1)]


def w_reference(coeffs, r, phi, ell, dps=50):
    """W(r, phi, ell) of the state with Fock table ``coeffs`` ({(n+, n-): c}).

    Returns (value, imaginary residue), both as Python floats.  The table
    must be normalized; it is used as given.
    """
    with mp.workdps(dps):
        r = mp.mpf(r)
        phi = mp.mpf(phi)
        a = mp.mpf(ell) / r
        ket = _wavefunction_poly(coeffs, r, phi)
        bra = [mp.conj(c) * (-1) ** k for k, c in enumerate(ket)]
        prod = _polymul(bra, ket)
        moments = _shifted_moments(a, len(prod) - 1)
        total = mp.fsum(p * s for p, s in zip(prod, moments))
        val = 4 * mp.exp(-r * r - a * a) * total
        return float(val.real), float(val.imag)


def table_of(state):
    """Nonzero entries of a TwoModeFock coefficient table as {(n+, n-): c}."""
    return {(int(i), int(j)): complex(state.coeffs[i, j])
            for i, j in zip(*state.coeffs.nonzero())}


#: Accuracy probes: make_summed_oam(0, Nmax) at phi = 0.4, from the
#: accuracy table of the roadmap.  Their exact values are slow at 80 digits,
#: so they are stored in probe_reference.json.
PROBES = [
    {"Nmax": 30, "r": 0.5, "ell": 3},
    {"Nmax": 40, "r": 0.5, "ell": 3},
    {"Nmax": 40, "r": 2.0, "ell": 6},
]
PROBE_PHI = 0.4
PROBE_DPS = 80


def _probe_values():
    from cylwigner.twomode import make_summed_oam  # noqa: PLC0415 - needs src on sys.path
    out = []
    for p in PROBES:
        coeffs = table_of(make_summed_oam(0, p["Nmax"]))
        val, imag = w_reference(coeffs, p["r"], PROBE_PHI, p["ell"], dps=PROBE_DPS)
        check, _ = w_reference(coeffs, p["r"], PROBE_PHI, p["ell"], dps=PROBE_DPS + 40)
        if abs(val - check) > 1e-15 * abs(check):
            raise SystemExit(f"reference not converged at {p}: {val!r} vs {check!r}")
        out.append(dict(p, phi=PROBE_PHI, value=repr(val), imag=repr(imag)))
    return out


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    doc = {
        "command": "python3 perfbench/reference.py > perfbench/probe_reference.json",
        "dps": PROBE_DPS,
        "state": "make_summed_oam(0, Nmax)",
        "probes": _probe_values(),
    }
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
