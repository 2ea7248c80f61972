"""Batch front end: config parsing, verify / solve / sweep / diagnose runs.

Configs are JSON; tabular outputs are CSV; solutions persist as spectrum JSON
documents that round-trip through the library's own loaders.  Exit codes:
0 success, 2 config validation, 3 solver failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    BoundaryNotNegative,
    DivergedRefinement,
    DomainError,
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
    field_from_function,
    forward_transform,
    hermitian_defect,
    hs_norm,
    inverse_transform,
    multiplier,
    object_from_json,
    project_zero_mean,
    random_spectrum,
    spectrum_to_json,
)
from .theta import ThetaProfile, kappa, profile_energy_integral
from . import continuation, energy, extension, linking
from .nonlinearity import (
    NonlinearitySpec,
    nonlinear_energy,
    pad_to_grid,
    padded_size,
    restrict_to_grid,
    verify_hypotheses,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

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
    output_dir: str = "."
    solution_file: Optional[str] = None


def _require_keys(doc: dict, allowed: set, path: str):
    for key in doc:
        if key not in allowed:
            raise ValidationError(f"unknown key {path}.{key}")


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
         "output_dir", "solution_file"},
        "$",
    )

    def section(name, required=True):
        if name not in doc:
            if required:
                raise ValidationError(f"missing section $.{name}")
            return None
        if not isinstance(doc[name], dict):
            raise ValidationError(f"$.{name} must be an object")
        return doc[name]

    gdoc = section("grid")
    _require_keys(gdoc, {"N", "T", "n"}, "$.grid")
    try:
        grid = TorusGrid(N=int(gdoc["N"]), T=float(gdoc["T"]), n=int(gdoc["n"]))
    except (KeyError, TypeError) as ex:
        raise ValidationError(f"$.grid: {ex}") from ex
    except DomainError as ex:
        raise ValidationError(f"$.grid: {ex}") from ex

    fdoc = section("frac")
    _require_keys(fdoc, {"s", "m"}, "$.frac")
    try:
        frac = FracParams(s=float(fdoc["s"]), m=float(fdoc["m"]))
        frac.check_grid(grid)
    except (KeyError, TypeError, DomainError) as ex:
        raise ValidationError(f"$.frac: {ex}") from ex

    mode = doc.get("mode")
    if mode not in ("verify", "solve", "sweep", "diagnose"):
        raise ValidationError(f"$.mode must be verify|solve|sweep|diagnose, got {mode!r}")

    ndoc = section("nonlinearity", required=mode in ("solve", "sweep"))
    spec = None
    if ndoc is not None:
        _require_keys(ndoc, {"kind", "p", "mu", "r0", "a_values"}, "$.nonlinearity")
        a = None
        if "a_values" in ndoc:
            vals = np.asarray(ndoc["a_values"], dtype=float).reshape(grid.shape)
            a = Field(grid, vals)
        try:
            spec = NonlinearitySpec(
                kind=str(ndoc.get("kind", "pure_power")),
                p=float(ndoc["p"]),
                mu=float(ndoc.get("mu", 0.0)),
                r0=float(ndoc.get("r0", 1.0)),
                a=a,
            )
            spec.check_growth(frac, grid)
        except (KeyError, TypeError) as ex:
            raise ValidationError(f"$.nonlinearity: {ex}") from ex
        except (ValidationError, HypothesisViolated, DomainError) as ex:
            raise ValidationError(f"$.nonlinearity: {ex}") from ex

    sdoc = section("solver", required=False) or {}
    _require_keys(
        sdoc,
        {"R", "R_prime", "grid_A", "descent_step", "ps_tol", "max_iters", "polish_every"},
        "$.solver",
    )
    try:
        solver = linking.LinkingConfig(
            R=float(sdoc.get("R", 0.0)),
            R_prime=float(sdoc.get("R_prime", 0.0)),
            grid_A=tuple(sdoc.get("grid_A", (9, 17))),
            descent_step=float(sdoc.get("descent_step", 0.5)),
            ps_tol=float(sdoc.get("ps_tol", 1e-8)),
            max_iters=int(sdoc.get("max_iters", 2000)),
            polish_every=int(sdoc.get("polish_every", 20)),
        )
    except DomainError as ex:
        raise ValidationError(f"$.solver: {ex}") from ex

    m_list = doc.get("m_list")
    if mode == "sweep":
        if not m_list:
            raise ValidationError("$.m_list is required in sweep mode")
        m_list = [float(m) for m in m_list]
        if any(m <= 0 for m in m_list) or any(
            b >= a for a, b in zip(m_list, m_list[1:])
        ):
            raise ValidationError("$.m_list must be positive and strictly decreasing")

    return RunConfig(
        grid=grid,
        frac=frac,
        nonlinearity=spec,
        solver=solver,
        mode=mode,
        m_list=m_list,
        seed=int(doc.get("seed", 0)),
        output_dir=str(doc.get("output_dir", ".")),
        solution_file=doc.get("solution_file"),
    )


# ---------------------------------------------------------------------------
# verify mode: the runnable invariant suite

def _verify_properties(cfg: RunConfig):
    g, p = cfg.grid, cfg.frac
    rng = np.random.default_rng(cfg.seed)
    props = []

    def check(name, fn):
        try:
            val = fn()
            ok = bool(val) if isinstance(val, (bool, np.bool_)) else True
            detail = "" if isinstance(val, (bool, np.bool_)) else str(val)
        except FractorusError as ex:
            ok, detail = False, f"{type(ex).__name__}: {ex}"
        props.append({"name": name, "passed": ok, "detail": detail})

    w = g.omega
    k0 = tuple(int(v) for v in rng.integers(-g.n // 2 + 1, g.n // 2, size=g.N))
    c = np.zeros(g.shape, complex)
    c[tuple(np.mod(k0, g.n))] = 1.0
    mode = Spectrum(g, c)
    lam = (w**2 * sum(x * x for x in k0) + p.m**2) ** p.s

    from .grids import apply_bessel_operator, apply_shifted_operator

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
    prof = ThetaProfile(p.s)
    check("kappa_conormal_limit", lambda: abs(
        prof.conormal_limit_check([1e-2, 1e-3, 1e-4, 1e-5, 1e-6]) - kappa(p.s))
        < 1e-5 * kappa(p.s))
    ys = np.logspace(-3, np.log10(30.0), 60)
    check("theta_ode_residual", lambda: float(np.max(
        prof.ode_residual(ys) / np.maximum(1.0, prof.theta(ys)))) < 1e-8)
    ph = ThetaProfile(0.5)
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

    spec = cfg.nonlinearity or NonlinearitySpec(kind="pure_power", p=3.0)
    m_pad = padded_size(g.n, spec)
    check("dealias_pad_roundtrip", lambda: np.max(np.abs(
        restrict_to_grid(pad_to_grid(u_rand, m_pad), g).coeffs - u_rand.coeffs)) < 1e-12)
    cosx = forward_transform(field_from_function(g, lambda *xs: np.cos(w * xs[0])))
    if abs(spec.p - 3.0) < 1e-12 and spec.kind == "pure_power" and g.N == 1:
        # int cos^4 over one period is 3T/8; divide by p+1 = 4
        check("nonlinear_energy_cos_analytic", lambda: abs(
            nonlinear_energy(spec, cosx) - 3.0 * g.T / 32.0) < 1e-10)
    v = random_spectrum(g, rng, decay=0.5)
    wdir = random_spectrum(g, rng, decay=0.5)
    eps = 1e-6

    def fd_check(metric):
        Ip = energy.evaluate(Spectrum(g, v.coeffs + eps * wdir.coeffs), p, spec).value
        Im = energy.evaluate(Spectrum(g, v.coeffs - eps * wdir.coeffs), p, spec).value
        fd = (Ip - Im) / (2 * eps)
        gr = energy.gradient(v, p, spec, metric="L2")
        an = float(np.real(np.sum(gr.coeffs * np.conj(wdir.coeffs))))
        if metric == "X":
            gx = energy.gradient(v, p, spec, metric="X")
            anx = float(np.real(np.sum(gx.coeffs * np.conj(
                multiplier(g, p) * wdir.coeffs))))
            return abs(fd - anx) < 1e-6 * max(abs(fd), 1.0)
        return abs(fd - an) < 1e-6 * max(abs(fd), 1.0)

    check("gradient_fd_consistency_L2", lambda: fd_check("L2"))
    check("gradient_fd_consistency_X", lambda: fd_check("X"))
    zc = project_zero_mean(cosx)
    check("coercivity_gap_axis_mode", lambda: abs(
        energy.quadratic_gap(zc, p) - energy.coercivity_constant(g, p)) < 1e-12)
    rep = verify_hypotheses(spec, g, np.linspace(-3, 3, 41), None)
    check("hypotheses_hold_for_shipped_family", lambda: rep.all_pass)

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
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([_fmt(v) for v in row])


def run(cfg: RunConfig, output_dir=None, solver_trace=False, dump_extension=False) -> int:
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)

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
        st = linking.minimax_search(cfg.grid, cfg.frac, cfg.nonlinearity, cfg.solver, rng=rng)
        if solver_trace:
            _write_csv(out / "solver_trace.csv",
                       ["sweep", "level", "grad_norm", "c", "r"], st.trace)
        if st.status != "Converged":
            _write_json(out / "energy.json", {"status": st.status, "level": st.level})
            return EXIT_SOLVER
        u = linking.newton_refine(st.iterate, cfg.frac, cfg.nonlinearity,
                                  tol=cfg.solver.ps_tol * 0.1)
        rep = energy.evaluate(u, cfg.frac, cfg.nonlinearity)
        _write_json(out / "solution.json", spectrum_to_json(u))
        _write_json(out / "energy.json", {
            "status": st.status,
            "level": st.level,
            "residual": linking.residual_norm(u, cfg.frac, cfg.nonlinearity),
            "hs_norm": hs_norm(u, cfg.frac),
            **rep.to_json(),
        })
        if dump_extension:
            ext = extension.extend(project_zero_mean(u), cfg.frac)
            y_list = [0.0, 0.1, 0.5, 1.0, 2.0]
            _write_json(out / "extension.json", {
                "y": y_list,
                "slices": [
                    [float(v) for v in ext.slice_at(y).values.ravel()]
                    for y in y_list
                ],
            })
        return EXIT_OK

    if cfg.mode == "sweep":
        est = continuation.estimate_sobolev_constant(cfg.grid, cfg.frac, rng=rng)
        if any(m >= est.m0 for m in cfg.m_list):
            raise ValidationError(
                f"$.m_list: all masses must lie below computed m0 = {est.m0:.6g}")
        recs = continuation.sweep_m(cfg.m_list, cfg.frac, cfg.nonlinearity,
                                    cfg.solver, cfg.grid, m0=est.m0, rng=rng)
        _write_csv(out / "sweep.csv",
                   ["m", "alpha", "hs_norm_T", "l2_norm", "residual", "status"],
                   [r.row() for r in recs])
        _write_json(out / "sobolev.json", est.to_json())
        for r in recs:
            if r.solution is not None:
                _write_json(out / f"sol_m{r.m:g}.json", spectrum_to_json(r.solution))
        if any(r.status != "Converged" for r in recs):
            return EXIT_SOLVER
        limit = continuation.extract_limit(recs, cfg.frac, cfg.nonlinearity,
                                           tol=cfg.solver.ps_tol)
        _write_json(out / "limit.json", spectrum_to_json(limit))
        return EXIT_OK

    if cfg.mode == "diagnose":
        if not cfg.solution_file:
            raise ValidationError("$.solution_file is required in diagnose mode")
        obj = object_from_json(json.loads(Path(cfg.solution_file).read_text()))
        if not isinstance(obj, Spectrum):
            raise ValidationError("$.solution_file must contain a spectrum document")
        qs = [2.0, 4.0, 8.0, 16.0]
        if cfg.grid.N > 2 * cfg.frac.s:
            qs = sorted(set(qs) | set(
                continuation.ladder_exponents(cfg.grid.N, cfg.frac.s, count=4)))
        table = continuation.bootstrap_diagnostic(obj, qs)
        doc = {"bootstrap": [{"q": q, "lq_norm": v} for q, v in table]}
        try:
            doc["holder_alpha"] = continuation.holder_proxy(obj)
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
    ap.add_argument("--output", default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--solver-trace", action="store_true")
    ap.add_argument("--dump-extension", action="store_true")
    args = ap.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text())
        cfg.mode = args.mode
        if args.seed is not None:
            cfg.seed = args.seed
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
