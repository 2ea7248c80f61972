"""Batch front end: config parsing, verify / solve / sweep / diagnose runs.

Configs are JSON; tabular outputs are CSV; solutions persist as spectrum JSON
documents that round-trip through the library's own loaders.  Exit codes:
0 success, 2 config validation, 3 solver failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    BoundaryNotNegative,
    DivergedRefinement,
    FractorusError,
    HypothesisViolated,
    LimitCollapsed,
    NoPositiveRidge,
    NotCauchy,
    ParseError,
    ValidationError,
)
from .grids import (
    Field,
    FracParams,
    Spectrum,
    TorusGrid,
    apply_bessel_operator,
    apply_shifted_operator,
    field_from_function,
    forward_transform,
    hermitian_defect,
    hs_norm,
    inverse_transform,
    object_from_json,
    project_zero_mean,
    random_spectrum,
    spectrum_to_json,
)
from .theta import kappa, profile_energy_integral, theta_profile
from . import continuation, energy, extension, linking
from .nonlinearity import (
    Discretization,
    NonlinearitySpec,
    nonlinear_energy,
    pad_coeffs,
    padded_size,
    restrict_values,
    verify_hypotheses,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

# The nonlinearity verify checks when the config names none.
_VERIFY_SPEC = NonlinearitySpec(kind="pure_power", p=3.0)

_SOLVER_ERRORS = (
    NoPositiveRidge,
    BoundaryNotNegative,
    DivergedRefinement,
    LimitCollapsed,
    NotCauchy,
)


@dataclass
class RunConfig:
    grid: TorusGrid
    frac: FracParams
    nonlinearity: Optional[NonlinearitySpec]
    solver: linking.LinkingConfig
    mode: str
    m_list: Optional[list] = None
    seed: int = 0
    solution_file: Optional[str] = None


# What building a config value from well-formed JSON of the wrong type or
# range, or reading a file the config names, can raise.
_BUILD_ERRORS = (KeyError, TypeError, ValueError, OverflowError, OSError, FractorusError)


def _integer(value) -> int:
    """int(value), refusing booleans and numbers with a fractional part,
    which int() would truncate (64.9 -> 64)."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


# $.solver keys and their JSON conversions; absent keys take the
# LinkingConfig defaults.
_SOLVER_KEYS = {"R": float, "R_prime": float, "ps_tol": float, "max_iters": _integer}


def _require_keys(doc: dict, allowed: set, path: str):
    for key in doc:
        if key not in allowed:
            raise ValidationError(f"unknown key {path}.{key}")


def _built(path: str, build, *args):
    """build(*args), with any failure reported as a ValidationError at path."""
    try:
        return build(*args)
    except _BUILD_ERRORS as ex:
        raise ValidationError(f"{path}: {ex}") from ex


def _section(doc: dict, name: str, keys: set, build, required: bool):
    """build(section) for the object $.name, or None when it is absent and
    not required."""
    if name not in doc:
        if required:
            raise ValidationError(f"missing section $.{name}")
        return None
    sec = doc[name]
    if not isinstance(sec, dict):
        raise ValidationError(f"$.{name} must be an object")
    _require_keys(sec, keys, f"$.{name}")
    return _built(f"$.{name}", build, sec)


def parse_config(text: str) -> RunConfig:
    """Validated RunConfig from a JSON document; errors carry document paths."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        raise ParseError(f"malformed JSON: {ex}") from ex
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    _require_keys(
        doc,
        {"grid", "frac", "nonlinearity", "solver", "mode", "m_list", "seed",
         "solution_file"},
        "$",
    )

    grid = _section(doc, "grid", {"N", "T", "n"}, lambda d: TorusGrid(
        N=_integer(d["N"]), T=float(d["T"]), n=_integer(d["n"])), required=True)

    def build_frac(d):
        frac = FracParams(s=float(d["s"]), m=float(d["m"]))
        frac.check_grid(grid)
        return frac

    frac = _section(doc, "frac", {"s", "m"}, build_frac, required=True)

    mode = doc.get("mode")
    if mode not in ("verify", "solve", "sweep", "diagnose"):
        raise ValidationError(f"$.mode must be verify|solve|sweep|diagnose, got {mode!r}")
    if mode == "solve" and frac.m == 0.0:
        raise ValidationError("$.frac.m must be positive in solve mode: the linking "
                              "geometry needs a mean mode of positive norm")

    def build_spec(d):
        a = None
        if "a_values" in d:
            a = Field(grid, np.asarray(d["a_values"], dtype=float).reshape(grid.shape))
        spec = NonlinearitySpec(
            kind=str(d.get("kind", "pure_power")),
            p=float(d["p"]),
            mu=float(d["mu"]) if "mu" in d else None,
            r0=float(d.get("r0", 1.0)),
            a=a,
        )
        spec.check_growth(frac, grid)
        return spec

    spec = _section(doc, "nonlinearity", {"kind", "p", "mu", "r0", "a_values"},
                    build_spec, required=mode in ("solve", "sweep"))
    # the dealiased products sample the padded grid, whose cells are smaller
    _built("$.grid", grid.cell_at, padded_size(grid.n))

    solver = _section(doc, "solver", _SOLVER_KEYS, lambda d: linking.LinkingConfig(
        **{k: _SOLVER_KEYS[k](v) for k, v in d.items()}), required=False)

    m_list = doc.get("m_list")
    if mode == "sweep":
        if not m_list:
            raise ValidationError("$.m_list is required in sweep mode")
        m_list = _built("$.m_list", lambda ms: [float(m) for m in ms], m_list)
        _built("$.m_list", continuation.check_mass_list, m_list, None)
        if len(m_list) < 2:
            raise ValidationError("$.m_list needs at least two masses: the m = 0 "
                                  "limit is taken from a converged branch")
        if not (grid.omega**2) ** frac.s > 0.0:  # the Sobolev weight (omega^2 |k|^2)^s at |k| = 1
            raise ValidationError(f"$.grid.T = {grid.T!r}: the Sobolev weights underflow to 0")

    seed = _built("$.seed", _integer, doc.get("seed", 0))
    if seed < 0:
        raise ValidationError(f"$.seed must be nonnegative, got {seed}")
    solution_file = doc.get("solution_file")
    if solution_file is not None and not isinstance(solution_file, str):
        raise ValidationError(f"$.solution_file must be a string, got {solution_file!r}")

    return RunConfig(
        grid=grid,
        frac=frac,
        nonlinearity=spec,
        solver=solver or linking.LinkingConfig(),
        mode=mode,
        m_list=m_list,
        seed=seed,
        solution_file=solution_file,
    )


# ---------------------------------------------------------------------------
# verify mode: the runnable invariant suite

def _verify_properties(cfg: RunConfig):
    g, p = cfg.grid, cfg.frac
    rng = np.random.default_rng(cfg.seed)
    props = []

    def check(name, fn):
        try:
            ok, detail = bool(fn()), ""
        except FractorusError as ex:
            ok, detail = False, f"{type(ex).__name__}: {ex}"
        props.append({"name": name, "passed": ok, "detail": detail})

    w = g.omega
    k0 = tuple(int(v) for v in rng.integers(-g.n // 2 + 1, g.n // 2, size=g.N))
    c = np.zeros(g.shape, complex)
    c[tuple(np.mod(k0, g.n))] = 1.0
    mode = Spectrum(g, c)
    lam = (w**2 * sum(x * x for x in k0) + p.m**2) ** p.s

    check("multiplier_single_mode_exact", lambda: np.max(np.abs(
        apply_bessel_operator(mode, p).coeffs - lam * mode.coeffs)) < 1e-12 * max(lam, 1))
    check("shifted_multiplier_kills_constants", lambda: np.max(np.abs(
        apply_shifted_operator(Spectrum(g, np.where(g.ksq() == 0, 1.0, 0.0) + 0j), p).coeffs)) == 0.0)
    u_rand = random_spectrum(g, rng, decay=0.4)
    f_rand = inverse_transform(u_rand)
    check("transform_roundtrip", lambda: np.max(np.abs(
        forward_transform(f_rand).coeffs - u_rand.coeffs)) < 1e-12)
    check("parseval", lambda: abs(
        np.sum(f_rand.values**2) * g.cell_volume - u_rand.l2_norm() ** 2) < 1e-10)
    check("hermitian_symmetry", lambda: hermitian_defect(u_rand.coeffs) < 1e-12)

    check("kappa_half_is_one", lambda: abs(kappa(0.5) - 1.0) < 1e-12)
    check("kappa_reflection_product", lambda: abs(kappa(p.s) * kappa(1.0 - p.s) - 1.0) < 1e-12)
    check("kappa_profile_integral", lambda: abs(
        profile_energy_integral(p.s) - kappa(p.s)) < 1e-5 * kappa(p.s))
    prof = theta_profile(p.s)
    check("kappa_conormal_limit", lambda: abs(
        prof.conormal_limit_check([1e-2, 1e-3, 1e-4, 1e-5, 1e-6]) - kappa(p.s))
        < 1e-5 * kappa(p.s))
    ys = np.logspace(-3, np.log10(30.0), 60)
    check("theta_ode_residual", lambda: float(np.max(
        prof.ode_residual(ys) / np.maximum(1.0, prof.theta(ys)))) < 1e-8)
    ph = theta_profile(0.5)
    check("theta_closed_form_half", lambda: float(np.max(
        np.abs(ph.theta(ys) - np.exp(-ys)))) < 1e-10)

    pz = project_zero_mean(u_rand)
    if hs_norm(pz, p) > 0:
        ext = extension.extend(pz, p)
        check("extension_energy_reduction", lambda: abs(
            extension.cylinder_energy(ext)
            - kappa(p.s) * hs_norm(pz, p) ** 2) < 1e-4 * hs_norm(pz, p) ** 2)
        check("extension_trace_identity", lambda: np.max(np.abs(
            extension.trace(extension.as_cylinder(ext)).coeffs - pz.coeffs)) < 1e-6)
        check("sharp_trace_gap_zero_on_extension", lambda: abs(
            extension.sharp_trace_gap(extension.as_cylinder(ext), p)) < 1e-6)
    if p.m > 0:
        const = Spectrum(g, np.where(g.ksq() == 0, 2.0, 0.0).astype(complex))
        theta_mult = extension.as_cylinder(extension.extend(const, p))
        check("ground_gap_zero_on_theta_mode", lambda: abs(
            extension.ground_gap(theta_mult, p)) < 1e-6)

    spec = cfg.nonlinearity or _VERIFY_SPEC
    m_pad = padded_size(g.n)
    check("dealias_pad_roundtrip", lambda: np.max(np.abs(
        restrict_values(pad_coeffs(u_rand.coeffs, g, m_pad), g) - u_rand.coeffs)) < 1e-12)
    cosx = forward_transform(field_from_function(g, lambda *xs: np.cos(w * xs[0])))
    if abs(spec.p - 3.0) < 1e-12 and spec.kind == "pure_power" and g.N == 1:
        # int cos^4 over one period is 3T/8; divide by p+1 = 4
        check("nonlinear_energy_cos_analytic", lambda: abs(
            nonlinear_energy(spec, cosx) - 3.0 * g.T / 32.0) < 1e-10)
    v = random_spectrum(g, rng, decay=0.5)
    wdir = random_spectrum(g, rng, decay=0.5)
    eps = 1e-6

    @functools.cache
    def fd_quotient():
        disc = Discretization(g, p, spec)
        Ip = disc.at(v.coeffs + eps * wdir.coeffs).level
        Im = disc.at(v.coeffs - eps * wdir.coeffs).level
        return float(Ip - Im) / (2 * eps)

    def fd_check(metric, weight):
        # the derivative along wdir is the metric's gradient paired with weight * wdir
        fd = fd_quotient()
        gr = energy.gradient(v, p, spec, metric=metric)
        an = float(np.real(np.sum(gr.coeffs * np.conj(weight * wdir.coeffs))))
        return abs(fd - an) < 1e-6 * max(abs(fd), 1.0)

    check("gradient_fd_consistency_L2", lambda: fd_check("L2", 1.0))
    # the X-gradient is precondition(R), so wdir pairs with it through the inverse weight
    check("gradient_fd_consistency_X", lambda: fd_check(
        "X", 1.0 / Discretization(g, p, spec).inv_full))
    zc = project_zero_mean(cosx)
    check("coercivity_gap_axis_mode", lambda: abs(
        energy.quadratic_gap(zc, p) - energy.coercivity_constant(g, p)) < 1e-12)
    check("hypotheses_hold_for_shipped_family", lambda: verify_hypotheses(
        spec, g, np.linspace(-3, 3, 41)).all_pass)

    def negative_control():
        bad = Field(g, np.cos(w * g.points()[0]))  # sign-changing modulation
        try:
            NonlinearitySpec(kind="modulated_power", p=3.0, a=bad)
        except HypothesisViolated:
            return True
        return False

    check("sign_changing_modulation_rejected", negative_control)
    check("residual_zero_at_origin", lambda: linking.residual_norm(
        Spectrum(g, np.zeros(g.shape, complex)), p, spec) == 0.0)
    check("zero_direction_is_unit", lambda: abs(
        hs_norm(linking.pick_z_direction(g, p), p) - 1.0) < 1e-12)
    return props


def _write_json(path: Path, doc):
    """doc as one line of JSON with sorted keys."""
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def _solver_failed(message: str) -> int:
    """Print the one `solver error: ...` line that main prints for a raised
    solver error, and return EXIT_SOLVER."""
    print(f"solver error: {message}", file=sys.stderr)
    return EXIT_SOLVER


def run(cfg: RunConfig, output_dir=".", solver_trace=False, dump_extension=False) -> int:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.mode == "verify":
        props = _verify_properties(cfg)
        ok = all(pr["passed"] for pr in props)
        _write_json(out / "verify_report.json", {
            "passed": ok,
            "n_properties": len(props),
            "properties": props,
        })
        return EXIT_OK if ok else EXIT_VERIFY

    if cfg.mode == "solve":
        st = linking.minimax_search(cfg.grid, cfg.frac, cfg.nonlinearity, cfg.solver)
        if solver_trace:
            _write_csv(out / "solver_trace.csv",
                       ["sweep", "level", "grad_norm", "c", "r"], st.trace)
        if st.status != "Converged":
            _write_json(out / "energy.json", {"status": st.status, "level": st.level})
            return _solver_failed(f"{st.status}: level {st.level!r}, dual residual "
                                  f"{st.grad_norm:.3e}, sweeps {len(st.trace)}")
        u = st.iterate
        rep = energy.report(st.point)
        _write_json(out / "solution.json", spectrum_to_json(u))
        _write_json(out / "energy.json", {
            "status": st.status,
            "level": st.level,
            "residual": st.grad_norm,
            "hs_norm": hs_norm(u, cfg.frac),
            "rho_lb": st.rho,
            "delta_hat": st.delta_hat,
            "coarse_n": st.coarse_n,
            "coarse_level": st.coarse_level,
            **asdict(rep),
        })
        if dump_extension:
            ext = extension.extend(project_zero_mean(u), cfg.frac)
            y_list = [0.0, 0.1, 0.5, 1.0, 2.0]
            _write_json(out / "extension.json", {
                "y": y_list,
                "slices": [ext.slice_at(y).values.ravel().tolist() for y in y_list],
            })
        return EXIT_OK

    if cfg.mode == "sweep":
        est = _built("$.frac", continuation.estimate_sobolev_constant, cfg.grid, cfg.frac,
                     np.random.default_rng(cfg.seed))
        _built("$.m_list", continuation.check_mass_list, cfg.m_list, est.m0)
        recs = continuation.sweep_m(cfg.m_list, cfg.frac, cfg.nonlinearity,
                                    cfg.solver, cfg.grid, m0=est.m0)
        _write_csv(out / "sweep.csv",
                   ["m", "alpha", "hs_norm_T", "l2_norm", "residual", "status"],
                   [r.row() for r in recs])
        _write_json(out / "sobolev.json", asdict(est))
        for r in recs:
            if r.solution is not None:
                _write_json(out / f"sol_m{r.m:g}.json", spectrum_to_json(r.solution))
        failed = [r for r in recs if r.status != "Converged"]
        if failed:
            return _solver_failed(f"{failed[0].status} ({len(failed)} of {len(recs)} "
                                  "masses failed)")
        limit = continuation.extract_limit(recs, cfg.frac, cfg.nonlinearity,
                                           tol=cfg.solver.ps_tol)
        _write_json(out / "limit.json", spectrum_to_json(limit))
        return EXIT_OK

    if cfg.mode == "diagnose":
        if not cfg.solution_file:
            raise ValidationError("$.solution_file is required in diagnose mode")
        obj = _built("$.solution_file", lambda path: object_from_json(
            json.loads(Path(path).read_text())), cfg.solution_file)
        if obj.grid != cfg.grid:
            raise ValidationError(f"$.solution_file holds a spectrum on {obj.grid}, "
                                  f"not on $.grid {cfg.grid}")
        f = _built("$.solution_file", inverse_transform, obj)  # Hermitian, finite samples
        qs = [2.0, 4.0, 8.0, 16.0]
        if cfg.grid.N > 2 * cfg.frac.s:
            qs = sorted(set(qs) | set(continuation.ladder_exponents(cfg.grid.N, cfg.frac.s)))
        table = continuation.bootstrap_diagnostic(f, qs)
        doc = {"bootstrap": [{"q": q, "lq_norm": v} for q, v in table]}
        try:
            doc["holder_alpha"] = continuation.holder_proxy(obj, f)
        except FractorusError as ex:
            doc["holder_alpha"] = None
            doc["holder_note"] = f"{type(ex).__name__}: {ex}"
        _write_json(out / "diagnose.json", doc)
        return EXIT_OK

    raise ValidationError(f"unknown mode {cfg.mode!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="fractorus",
        description="Pseudospectral solver for the shifted fractional Bessel "
                    "operator on the torus",
    )
    ap.add_argument("mode", choices=["verify", "solve", "sweep", "diagnose"])
    ap.add_argument("--config", required=True)
    ap.add_argument("--output", default=".")
    ap.add_argument("--solver-trace", action="store_true")
    ap.add_argument("--dump-extension", action="store_true")
    args = ap.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text())
        if args.mode != cfg.mode:
            raise ValidationError(f"mode {args.mode!r} does not match $.mode {cfg.mode!r}")
        code = run(cfg, output_dir=args.output,
                   solver_trace=args.solver_trace,
                   dump_extension=args.dump_extension)
    except (ParseError, ValidationError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG
    except _SOLVER_ERRORS as ex:
        print(f"solver error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_SOLVER
    except FractorusError as ex:
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_VERIFY
    return code


if __name__ == "__main__":
    sys.exit(main())
