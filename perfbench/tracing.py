"""Per-layer spans, recorded from outside the program by wrapping functions.

Each listed function is replaced in its defining module and in every
`fractorus` module that imported it by name (`linking.pad_coeffs`,
`energy.multiplier`, ...); `ThetaProfile` is wrapped on the class, its
theta, theta' and theta'' methods counting as one layer.  Spans (name, start,
end, parent span, item id) stay in memory until the run writes them.  A
span's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

from fractorus import errors, theta

LAYERS = {
    "grids": ["forward_transform", "inverse_transform", "multiplier", "hs_norm"],
    "nonlinearity": ["pad_coeffs", "restrict_values", "nonlinear_gradient",
                     "nonlinear_energy"],
    "energy": ["evaluate", "gradient"],
    "linking": ["minimax_search", "ridge_estimate", "newton_refine", "residual_norm"],
    "continuation": ["estimate_sobolev_constant", "sweep_m", "extract_limit"],
    "theta": ["halfline_rule", "profile_energy_integral", "ThetaProfile"],
    "extension": ["extend", "as_cylinder", "cylinder_energy", "sharp_trace_gap",
                  "ground_gap", "conormal_derivative"],
    "cli": ["parse_config", "run"],
}
NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
THETA_METHODS = ("theta", "theta_prime", "theta_second")

# Layer -> exception class counted as its `.failed`.
FAILURES = {
    "linking.newton_refine": errors.DivergedRefinement,
    "linking.ridge_estimate": errors.NoPositiveRidge,
    "extension.cylinder_energy": errors.QuadratureUnconverged,
}

# Layer -> work counted from arguments and return value, not measured.
COUNTS = {
    "nonlinearity.pad_coeffs": ("points", lambda args, out: out.size),
    "nonlinearity.restrict_values": ("points", lambda args, out: np.size(args[0])),
    "theta.ThetaProfile": ("points", lambda args, out: np.size(args[1])),
    "linking.minimax_search": ("sweeps", lambda args, out: len(out.history)),
}


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.item = array("i")
        self.current_item = -1
        self.failed = dict.fromkeys(NAMES, 0)
        self.counts = dict.fromkeys(NAMES, 0)
        self._stack = []
        self._patches = []

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every listed function; `remove` undoes exactly these patches."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "fractorus" or k.startswith("fractorus."))]
        for lid, qual in enumerate(NAMES):
            mod_name, fn_name = qual.split(".")
            if qual == "theta.ThetaProfile":
                for meth in THETA_METHODS:
                    orig = theta.ThetaProfile.__dict__[meth]
                    self._patch(theta.ThetaProfile, meth, self._wrap(lid, qual, orig))
                continue
            orig = getattr(sys.modules[f"fractorus.{mod_name}"], fn_name)
            wrapper = self._wrap(lid, qual, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, wrapper)

    def remove(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, lid, qual, fn):
        clock = time.perf_counter
        stack = self._stack
        fail_cls = FAILURES.get(qual)
        count = COUNTS.get(qual)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(lid)
            self.parent.append(stack[-1] if stack else -1)
            self.item.append(self.current_item)
            stack.append(idx)
            self.start.append(clock())
            self.end.append(0.0)
            try:
                out = fn(*args, **kwargs)
            except BaseException as ex:
                if fail_cls is not None and isinstance(ex, fail_cls):
                    self.failed[qual] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count is not None:
                self.counts[qual] += int(count[1](args, out))
            return out

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "item": np.frombuffer(self.item, dtype=np.int32).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(NAMES), **self.arrays())

    def metrics(self) -> dict:
        """`<layer>.calls/.total_s/.self_s` plus the counted extras."""
        a = self.arrays()
        calls, total, self_s = layer_totals(a["name"], a["start"], a["end"], a["parent"])
        out = {}
        for lid, qual in enumerate(NAMES):
            out[f"{qual}.calls"] = (int(calls[lid]), "count")
            out[f"{qual}.total_s"] = (float(total[lid]), "s")
            out[f"{qual}.self_s"] = (float(self_s[lid]), "s")
            if qual in COUNTS:
                out[f"{qual}.{COUNTS[qual][0]}"] = (self.counts[qual], "count")
            if qual in FAILURES:
                out[f"{qual}.failed"] = (self.failed[qual], "count")
        n_calls = out["linking.newton_refine.calls"][0]
        ok = n_calls - self.failed["linking.newton_refine"]
        # 0 when newton_refine never ran (verify-mixed).
        out["linking.newton_refine.ok_ratio"] = (ok / n_calls if n_calls else 0.0, "ratio")
        return out


def layer_totals(name, start, end, parent, n_layers=len(NAMES)):
    """Per-layer call count, total time and self time of a span table.

    Spans come from one thread with strictly nested calls, so the children of
    a span never overlap and the part of it they cover is their summed
    duration.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    own = dur - covered
    calls = np.bincount(name, minlength=n_layers)
    total = np.bincount(name, weights=dur, minlength=n_layers)
    self_s = np.bincount(name, weights=own, minlength=n_layers)
    return calls, total, self_s
