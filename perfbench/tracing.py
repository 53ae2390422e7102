"""Span tracing of cylwigner's public functions, installed from outside the package.

``Tracer.install()`` wraps each function named in ``LAYERS`` and puts the
wrapper under every name that refers to the original in any loaded
``cylwigner`` module, so calls through re-exports (``cylwigner.cli.build_state``,
``cylwigner.cylindrical.amplitude_polynomial``) are traced too.  Nothing
under ``src/`` is edited.

Spans are kept in memory, one buffer per thread, as rows of (function,
parent span, start, end, raised, extra), and written to an ``.npz`` file
when the run ends.  ``extra`` holds the term count of a Hermite call and
1 for a ``wigner_cyl`` call that returned exactly 0.  A span's self time is
its duration minus the durations of its direct children.
"""

import importlib
import sys
import threading
import time
from array import array

import numpy as np

#: module -> public functions wrapped in it.  phase1d is not traced: no
#: workload exercises it.
LAYERS = {
    "statespec": ["parse_state_spec", "build_state", "serialize_state_spec"],
    "quadrature": ["gauss_hermite", "gauss_legendre_mapped", "deweighted"],
    "specfun": ["hermite2_general", "hermite2", "laguerre"],
    "entangled": ["amplitude_polynomial", "xi_fock_overlap", "psi_entangled",
                  "laguerre_gauss_profile"],
    "cylindrical": ["wigner_cyl", "wigner_cyl_grid", "marginal_angle_oam",
                    "marginal_radial", "oracle_cyl_from_cartesian", "default_rule"],
    "twomode": ["wigner_4d", "displaced_fock_matrix", "make_N_l_eigenstate",
                "make_summed_oam", "make_superposition", "rotate_state",
                "mode_rotate_xy_to_pm", "expectation_N_L"],
    "cli": ["write_grid_csv", "write_grid_json", "cmd_wigner_cyl", "cmd_oracle_check"],
}

COLUMNS = (("func", "i"), ("parent", "q"), ("start", "d"), ("end", "d"),
           ("raised", "b"), ("extra", "q"))


def _hermite_terms(args, out):
    m, n, lam, lam_bar = args[:4]
    return (min(m, n) + 1) * np.broadcast(lam, lam_bar).size


def _is_zero(args, out):
    return int(out == 0.0)


#: Functions whose spans carry an ``extra`` count, and how it is computed.
EXTRA = {"specfun.hermite2_general": _hermite_terms, "cylindrical.wigner_cyl": _is_zero}


class _Buffer:
    """Spans of one thread, and the stack of its open spans."""

    def __init__(self):
        self.cols = {name: array(code) for name, code in COLUMNS}
        self.stack = []


class Tracer:
    def __init__(self):
        self.names = []
        self._buffers = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, qualname, fn):
        fid = len(self.names)
        self.names.append(qualname)
        extra = EXTRA.get(qualname)
        buffer = self._buffer
        clock = time.perf_counter

        def traced(*args, **kwargs):
            buf = buffer()
            c = buf.cols
            sid = len(c["func"])
            c["func"].append(fid)
            c["parent"].append(buf.stack[-1] if buf.stack else -1)
            c["raised"].append(1)
            c["extra"].append(0)
            c["end"].append(0.0)
            buf.stack.append(sid)
            c["start"].append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                c["end"][sid] = clock()
                buf.stack.pop()
            c["raised"][sid] = 0
            if extra is not None:
                c["extra"][sid] = extra(args, out)
            return out

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function in LAYERS under all the names it has in cylwigner."""
        replace = {}
        for layer, funcs in LAYERS.items():
            mod = importlib.import_module(f"cylwigner.{layer}")
            for name in funcs:
                fn = getattr(mod, name)
                replace[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cylwigner" or modname.startswith("cylwigner.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        return self

    def mark(self):
        """Number of spans recorded so far on the calling thread."""
        return len(self._buffer().cols["func"])

    def spans(self):
        """All spans as numpy arrays; parent indices are global across threads."""
        parts = {name: [] for name, _ in COLUMNS}
        offset = 0
        for buf in self._buffers:
            for name, _ in COLUMNS:
                col = np.array(buf.cols[name])
                if name == "parent":
                    col = np.where(col >= 0, col + offset, -1)
                parts[name].append(col)
            offset += len(buf.cols["func"])
        out = {name: np.concatenate(v) if v else np.zeros(0, dtype=code)
               for (name, code), v in zip(COLUMNS, parts.values())}
        out["names"] = np.array(self.names)
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.spans())


def load(path):
    with np.load(path, allow_pickle=False) as f:
        return {k: f[k] for k in f.files}


def summarize(spans, lo=0, hi=None):
    """Per-function totals over spans[lo:hi]: calls, raised, extra, total and self seconds.

    The slice must hold whole call trees (every child of a span in it is in it).
    """
    names = [str(n) for n in spans["names"]]
    hi = len(spans["func"]) if hi is None else hi
    func = spans["func"][lo:hi].astype(np.int64)
    dur = spans["end"][lo:hi] - spans["start"][lo:hi]
    parent = spans["parent"][lo:hi].astype(np.int64) - lo
    child = np.zeros_like(dur)
    inside = (parent >= 0) & (parent < len(dur))
    np.add.at(child, parent[inside], dur[inside])
    n = len(names)

    def per_func(weights=None):
        return np.bincount(func, weights=weights, minlength=n)

    calls = per_func()
    raised = per_func(spans["raised"][lo:hi].astype(float))
    extra = per_func(spans["extra"][lo:hi].astype(float))
    total = per_func(dur)
    self_s = per_func(dur - child)
    return {name: {"calls": int(calls[i]), "raised": int(raised[i]), "extra": int(extra[i]),
                   "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(names)}
