"""Acceptance gate: the eleven primary criteria, one test each.

Each test asserts the criterion at its stated tolerance; run with -v to get
one pass/fail line per criterion.
"""

import json

import numpy as np
import pytest

from fractorus import cli, continuation, energy, linking
from fractorus.errors import HypothesisViolated
from fractorus.extension import (
    as_cylinder,
    conormal_derivative,
    cylinder_energy,
    cylinder_from_profiles,
    extend,
    ground_gap,
    sharp_trace_gap,
)
from fractorus.grids import (
    FracParams,
    Spectrum,
    TorusGrid,
    apply_bessel_operator,
    field_from_function,
    forward_transform,
    hs_norm,
    multiplier,
    project_zero_mean,
    random_spectrum,
)
from fractorus.nonlinearity import NonlinearitySpec, verify_hypotheses
from fractorus.theta import ThetaProfile, kappa, profile_energy_integral

STANDARD = {
    "grid": {"N": 1, "T": 2 * np.pi, "n": 64},
    "frac": {"s": 0.5, "m": 1.0},
    "nonlinearity": {"kind": "pure_power", "p": 3, "mu": 4, "r0": 1},
    "solver": {},
    "mode": "solve",
    "seed": 7,
}


def _hs_dist(a, b, p):
    m = multiplier(a.grid, p)
    return float(np.sqrt(np.sum(m * np.abs(a.coeffs - b.coeffs) ** 2)))


def test_criterion_01_multiplier_exactness():
    # 50 random single modes, s in {0.25, 0.5, 0.75}, m in {0, 0.5, 1}
    g = TorusGrid(2, 2 * np.pi, 16)
    rng = np.random.default_rng(101)
    cases = [(s, m) for s in (0.25, 0.5, 0.75) for m in (0.0, 0.5, 1.0)]
    for trial in range(50):
        s, m = cases[trial % len(cases)]
        p = FracParams(s, m)
        k = rng.integers(-g.n // 2 + 1, g.n // 2, size=g.N)
        amp = complex(rng.standard_normal(), rng.standard_normal())
        c = np.zeros(g.shape, complex)
        c[tuple(np.mod(k, g.n))] = amp
        lam = (g.omega**2 * float(np.sum(k.astype(float) ** 2)) + m**2) ** s
        out = apply_bessel_operator(Spectrum(g, c), p)
        err = np.max(np.abs(out.coeffs - lam * c)) / max(abs(amp) * lam, 1e-300)
        assert err < 1e-12, f"trial {trial}: relative error {err:.2e}"


def test_criterion_02_kappa_triple_agreement():
    for s in (0.25, 0.5, 0.75):
        k_formula = kappa(s)
        k_integral = profile_energy_integral(s, nodes=400)
        k_limit = ThetaProfile(s).conormal_limit_check([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        for a, b in ((k_formula, k_integral), (k_formula, k_limit), (k_integral, k_limit)):
            assert abs(a - b) < 1e-5 * abs(a), f"s={s}: {a} vs {b}"
    assert abs(kappa(0.5) - 1.0) < 1e-12


def test_criterion_03_closed_form_half_suite():
    prof = ThetaProfile(0.5)
    y = np.logspace(-3, np.log10(30.0), 500)
    assert float(np.max(np.abs(prof.theta(y) - np.exp(-y)))) < 1e-10
    g = TorusGrid(1, 2 * np.pi, 64)
    p0 = FracParams(0.5, 0.0)
    u = forward_transform(field_from_function(g, np.cos))
    v = extend(u, p0)
    assert abs(cylinder_energy(v) - np.pi) < 1e-8
    got = conormal_derivative(v, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    assert float(np.max(np.abs(got.coeffs - u.coeffs))) < 1e-6


def test_criterion_04_sharp_trace_inequality():
    g = TorusGrid(1, 2 * np.pi, 16)
    p = FracParams(0.5, 1.0)
    rng = np.random.default_rng(404)
    # 100 randomized cylinder functions: random spectra x perturbed decay rates
    for _ in range(100):
        u = random_spectrum(g, rng, decay=0.5)
        c = 1.0 + 2.0 * rng.random()

        def prof(t, c=c):
            return np.exp(-c * t)

        def dprof(t, c=c):
            return -c * np.exp(-c * t)

        v = cylinder_from_profiles(u, p, prof, dprof)
        assert sharp_trace_gap(v, p) >= -1e-8
    # exact extensions: |gap| < 1e-6 * energy
    for _ in range(10):
        u = random_spectrum(g, rng, decay=0.5)
        v = as_cylinder(extend(u, p))
        e = cylinder_energy(v)
        assert abs(sharp_trace_gap(v, p)) < 1e-6 * max(e, 1e-12)
    # ground gap: zero on multiples of theta(my), positive on zero-mean probes
    c = np.zeros(g.shape, complex)
    c[0] = 3.0
    assert abs(ground_gap(as_cylinder(extend(Spectrum(g, c), p)), p)) < 1e-6
    z = project_zero_mean(random_spectrum(g, rng, decay=0.5))
    assert ground_gap(as_cylinder(extend(z, p)), p) > 1e-4


def test_criterion_05_theta_ode_residual():
    y = np.logspace(-3, np.log10(30.0), 100)
    for s in (0.25, 0.5, 0.75):
        prof = ThetaProfile(s)
        res = prof.ode_residual(y)
        assert float(np.max(res / np.maximum(1.0, prof.theta(y)))) < 1e-8


def test_criterion_06_energy_gradient_consistency():
    spec = NonlinearitySpec(kind="pure_power", p=3.0)
    for s, m in ((0.5, 1.0), (0.25, 0.5)):
        g = TorusGrid(1, 2 * np.pi, 32)
        p = FracParams(s, m)
        rng = np.random.default_rng(606)
        mult = multiplier(g, p)
        for _ in range(20):
            u = random_spectrum(g, rng, decay=0.5)
            w = random_spectrum(g, rng, decay=0.5)
            eps = 1e-6
            Ip = energy.evaluate(Spectrum(g, u.coeffs + eps * w.coeffs), p, spec).value
            Im = energy.evaluate(Spectrum(g, u.coeffs - eps * w.coeffs), p, spec).value
            fd = (Ip - Im) / (2 * eps)
            gl = energy.gradient(u, p, spec, metric="L2")
            gx = energy.gradient(u, p, spec, metric="X")
            an_l = float(np.real(np.sum(gl.coeffs * np.conj(w.coeffs))))
            an_x = float(np.real(np.sum(gx.coeffs * np.conj(mult * w.coeffs))))
            scale = max(abs(fd), 1.0)
            assert abs(fd - an_l) < 1e-6 * scale
            assert abs(fd - an_x) < 1e-6 * scale


@pytest.fixture(scope="module")
def standard_solve():
    g = TorusGrid(1, 2 * np.pi, 64)
    p = FracParams(0.5, 1.0)
    spec = NonlinearitySpec(kind="pure_power", p=3.0, mu=4.0)
    cfg = linking.LinkingConfig()
    st = linking.minimax_search(g, p, spec, cfg)
    return g, p, spec, cfg, st


def test_criterion_07_discrete_linking_solve(standard_solve):
    g, p, spec, cfg, st = standard_solve
    assert st.status == "Converged"
    assert linking.residual_norm(st.iterate, p, spec) < 1e-8
    assert hs_norm(st.iterate, p) > 1e-3
    assert st.level > 0
    _, rho = linking.ridge_estimate(g, p, spec)
    assert rho - 1e-9 <= st.level <= st.delta_hat + 1e-12
    levels = [h[0] for h in st.history]
    assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))
    refined = linking.newton_refine(st.iterate, p, spec, tol=1e-10)
    assert _hs_dist(refined, st.iterate, p) < 1e-6


def test_criterion_08_small_instance_oracle():
    # brute-force critical-point catalog on a small 1-D truncation
    g = TorusGrid(1, 2 * np.pi, 8)
    p = FracParams(0.5, 1.0)
    spec = NonlinearitySpec(kind="pure_power", p=3.0)
    rng = np.random.default_rng(42)
    catalog = []
    for _ in range(200):
        u0 = random_spectrum(g, rng, decay=0.2)
        u0 = Spectrum(g, u0.coeffs * (0.5 + 2.0 * rng.random()))
        try:
            u = linking.newton_refine(u0, p, spec, tol=1e-11, max_iters=80)
        except Exception:
            continue
        lev = energy.evaluate(u, p, spec).value
        if lev > 1e-8 and hs_norm(u, p) > 1e-6:
            catalog.append((lev, u))
    assert catalog, "brute-force search found no nontrivial critical points"
    best_lev, best_u = min(catalog, key=lambda t: t[0])
    st = linking.minimax_search(g, p, spec, linking.LinkingConfig())
    assert st.status == "Converged"
    aligned = linking.align_spectra(st.iterate, best_u, p)
    assert _hs_dist(aligned, st.iterate, p) < 1e-6
    assert abs(st.level - best_lev) < 1e-8


def test_criterion_09_mass_continuation():
    g = TorusGrid(1, 2 * np.pi, 64)
    p = FracParams(0.5, 1.0)
    spec = NonlinearitySpec(kind="pure_power", p=3.0, mu=4.0)
    cfg = linking.LinkingConfig()
    est = continuation.estimate_sobolev_constant(g, p, rng=np.random.default_rng(9))
    m_list = [0.5, 0.1, 0.02, 0.004]
    assert all(m < est.m0 for m in m_list), f"m0 = {est.m0}"
    recs = continuation.sweep_m(m_list, p, spec, cfg, g, m0=est.m0)
    assert all(r.status == "Converged" for r in recs)
    alphas = [r.alpha for r in recs]
    assert all(a > 0 for a in alphas)
    assert max(alphas) / min(alphas) < 10.0
    u = continuation.extract_limit(recs, p, spec, tol=1e-8)
    p0 = FracParams(0.5, 0.0)
    assert linking.residual_norm(u, p0, spec) < 1e-8
    assert hs_norm(u, p) > 1e-6
    assert continuation.nonlinear_action(spec, u) > 0


def test_criterion_10_hypothesis_verification():
    g = TorusGrid(1, 2 * np.pi, 64)
    spec = NonlinearitySpec(kind="pure_power", p=3.0, mu=4.0)
    rep = verify_hypotheses(spec, g)
    assert rep.all_pass
    assert rep.details["f5_equality"] is True  # (f5) equality for mu = p+1
    assert rep.details["C_eps_1.0"] >= 0.0
    assert rep.details["C_eps_0.1"] >= 0.0
    assert rep.passed["growth_split_eps_1.0"]
    assert rep.passed["growth_split_eps_0.1"]
    a = field_from_function(g, np.cos)  # sign-changing modulation
    with pytest.raises(HypothesisViolated) as exc:
        NonlinearitySpec(kind="modulated_power", p=3.0, a=a)
    assert exc.value.hypothesis == "f6"


def test_criterion_11_determinism(tmp_path):
    doc = json.dumps(STANDARD)
    for sub in ("one", "two"):
        cfg = cli.parse_config(doc)
        code = cli.run(cfg, output_dir=tmp_path / sub, solver_trace=True)
        assert code == cli.EXIT_OK
    a = (tmp_path / "one" / "solver_trace.csv").read_bytes()
    b = (tmp_path / "two" / "solver_trace.csv").read_bytes()
    assert a == b and len(a) > 0
