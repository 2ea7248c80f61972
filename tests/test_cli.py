"""CLI: config parsing, run modes, exit codes, artifact round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractorus import cli, extension
from fractorus.errors import DomainError, HypothesisViolated, ParseError, ValidationError
from fractorus.grids import (
    Spectrum,
    TorusGrid,
    field_from_function,
    forward_transform,
    inverse_transform,
    object_from_json,
    project_zero_mean,
    random_spectrum,
    spectrum_to_json,
)

MINIMAL = {
    "grid": {"N": 1, "T": 6.283185307179586, "n": 64},
    "frac": {"s": 0.5, "m": 1.0},
    "nonlinearity": {"kind": "pure_power", "p": 3, "mu": 4, "r0": 1},
    "solver": {},
    "mode": "solve",
    "seed": 7,
}


def _doc(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_minimal():
    cfg = cli.parse_config(_doc())
    assert cfg.grid.n == 64
    assert cfg.frac.s == 0.5
    assert cfg.nonlinearity.p == 3.0
    assert cfg.mode == "solve"


def test_parse_malformed():
    with pytest.raises(ParseError):
        cli.parse_config("{not json")


def test_parse_unknown_key():
    doc = json.loads(json.dumps(MINIMAL))
    doc["grid"]["radius"] = 3
    with pytest.raises(ValidationError) as exc:
        cli.parse_config(json.dumps(doc))
    assert "$.grid.radius" in str(exc.value)


def test_parse_supercritical_growth():
    doc = json.loads(json.dumps(MINIMAL))
    doc["nonlinearity"] = {"kind": "pure_power", "p": 5}
    doc["frac"] = {"s": 0.25, "m": 1.0}  # critical growth is 3
    with pytest.raises(ValidationError) as exc:
        cli.parse_config(json.dumps(doc))
    assert "$.nonlinearity" in str(exc.value)


def test_parse_bad_mode():
    with pytest.raises(ValidationError):
        cli.parse_config(_doc(mode="train"))


def test_parse_sweep_needs_m_list():
    with pytest.raises(ValidationError):
        cli.parse_config(_doc(mode="sweep"))
    cfg = cli.parse_config(_doc(mode="sweep", m_list=[0.5, 0.1]))
    assert cfg.m_list == [0.5, 0.1]
    with pytest.raises(ValidationError):
        cli.parse_config(_doc(mode="sweep", m_list=[0.1, 0.5]))


def test_verify_mode(tmp_path):
    cfg = cli.parse_config(_doc(mode="verify"))
    code = cli.run(cfg, output_dir=tmp_path)
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert report["n_properties"] >= 20
    assert all(p["passed"] for p in report["properties"])


def test_solve_mode_artifacts(tmp_path):
    cfg = cli.parse_config(_doc())
    code = cli.run(cfg, output_dir=tmp_path, solver_trace=True, dump_extension=True)
    assert code == cli.EXIT_OK
    sol = object_from_json(json.loads((tmp_path / "solution.json").read_text()))
    assert isinstance(sol, Spectrum)
    erep = json.loads((tmp_path / "energy.json").read_text())
    assert erep["status"] == "Converged"
    assert erep["residual"] < 1e-8
    assert erep["level"] > 0
    # the certified bracket of the linking level
    assert np.isfinite(erep["rho_lb"]) and np.isfinite(erep["delta_hat"])
    assert erep["rho_lb"] <= erep["level"] <= erep["delta_hat"]
    assert (tmp_path / "solver_trace.csv").exists()
    ext = json.loads((tmp_path / "extension.json").read_text())
    assert len(ext["slices"]) == len(ext["y"])


@pytest.mark.parametrize("grid,frac,coarse_n", [
    ({"N": 1, "T": 6.283185307179586, "n": 64}, {"s": 0.5, "m": 1.0}, None),
    ({"N": 2, "T": 6.283185307179586, "n": 32}, {"s": 0.75, "m": 1.0}, 16),
], ids=["1d-n64", "2d-n32"])
def test_energy_json_names_the_coarse_solve(tmp_path, grid, frac, coarse_n):
    # 32^2 / 4 = 256 points make the 2-D search run on the 16-point grid;
    # 64 / 2 = 32 points keep the 1-D search on its own grid
    code = cli.run(cli.parse_config(_doc(grid=grid, frac=frac)), output_dir=tmp_path)
    assert code == cli.EXIT_OK
    erep = json.loads((tmp_path / "energy.json").read_text())
    assert erep["coarse_n"] == coarse_n
    if coarse_n is None:
        assert erep["coarse_level"] is None
    else:
        assert np.isfinite(erep["coarse_level"])


def test_runs_without_scipy(tmp_path):
    # scipy is a test-only oracle: with its import failing, a verify and a
    # solve that dumps its extension (both evaluate theta) exit 0
    script = ("import sys; sys.modules['scipy'] = None; from fractorus import cli; "
              "sys.exit(cli.main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    runs = [("verify", _with(("grid", "n"), 16, mode="verify"), []),
            ("solve", _with(("grid", "n"), 16), ["--dump-extension"])]
    for mode, doc, flags in runs:
        cfg = tmp_path / f"{mode}.json"
        cfg.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, "-c", script, mode, "--config", str(cfg),
                               "--output", str(tmp_path / mode), *flags],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert (tmp_path / "solve" / "extension.json").exists()


def _same(a, b) -> bool:
    """a and b are the same JSON value: floats bitwise (NaN is NaN, -0.0 is
    not 0.0), containers element by element, everything else by type and ==."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return isinstance(b, float) and np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


def _stdlib_spectrum_bytes(S):
    """The spectrum document, built one float at a time, as json's encoder writes it."""
    doc = {"grid": {"N": S.grid.N, "T": S.grid.T, "n": S.grid.n}, "kind": "spectrum",
           "data": [[float(z.real), float(z.imag)] for z in S.coeffs.ravel()]}
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("T", [2 * np.pi, 1.0, 7.0], ids=["2pi", "1", "7"])
@pytest.mark.parametrize("N, n", [(1, 16), (2, 8), (3, 4)])
def test_spectrum_writer_matches_the_stdlib_bytes(tmp_path, N, n, T):
    # a spectrum document reads back as the dict written, and a finite one as
    # the spectrum bitwise; edge values included
    g, path = TorusGrid(N, T, n), tmp_path / "spectrum.json"
    c = random_spectrum(g, np.random.default_rng(N)).coeffs.copy()
    edge = [-0.0, 5e-324, 1e16, 1e-05, 1e300]
    c.reshape(-1)[: len(edge)] = [complex(v, -v) for v in edge]
    for coeffs in (c, c.T, np.asfortranarray(c)):  # C, reversed and Fortran order
        S = Spectrum(g, coeffs)
        doc = spectrum_to_json(S)
        cli._write_json(path, doc)
        assert path.read_bytes() == _stdlib_spectrum_bytes(S)
        assert _same(json.loads(path.read_text()), doc)
        back = object_from_json(json.loads(path.read_text()))
        assert back.coeffs.tobytes() == S.coeffs.tobytes()
    c = c.copy()  # Spectrum froze c
    c.reshape(-1)[-3:] = [complex(np.nan, 1.0), complex(np.inf, -np.inf), complex(-np.inf, np.nan)]
    S = Spectrum(g, c)
    doc = spectrum_to_json(S)
    cli._write_json(path, doc)
    assert path.read_bytes() == _stdlib_spectrum_bytes(S)
    assert _same(json.loads(path.read_text()), doc)
    with pytest.raises(DomainError):
        object_from_json(json.loads(path.read_text()))


@pytest.mark.parametrize("overrides", [
    {},
    {"grid": {"N": 2, "T": 6.283185307179586, "n": 8}, "frac": {"s": 0.75, "m": 1.0}},
], ids=["1d-n64", "2d-n8"])
def test_dump_extension_matches_the_stdlib_bytes(tmp_path, overrides):
    # extension.json holds the extension of the written solution, float for float
    cfg = cli.parse_config(_doc(**overrides))
    assert cli.run(cfg, output_dir=tmp_path, dump_extension=True) == cli.EXIT_OK
    sol = object_from_json(json.loads((tmp_path / "solution.json").read_text()))
    ext = extension.extend(project_zero_mean(sol), cfg.frac)
    y = [0.0, 0.1, 0.5, 1.0, 2.0]
    want = {"y": y, "slices": [[float(v) for v in ext.slice_at(t).values.ravel()] for t in y]}
    assert (tmp_path / "extension.json").read_bytes() == (
        json.dumps(want, sort_keys=True) + "\n").encode()
    assert _same(json.loads((tmp_path / "extension.json").read_text()), want)


@pytest.mark.parametrize("mode, overrides, flags", [
    ("solve", {}, {"solver_trace": True, "dump_extension": True}),
    ("sweep", {"mode": "sweep", "m_list": [0.5, 0.1]}, {}),
    ("verify", {"mode": "verify"}, {}),
])
def test_every_document_reads_back_as_written(tmp_path, monkeypatch, mode, overrides, flags):
    written, write = [], cli._write_json

    def recorded(path, doc):
        written.append((path, doc))
        write(path, doc)

    monkeypatch.setattr(cli, "_write_json", recorded)
    cfg = cli.parse_config(_doc(**overrides))
    assert cli.run(cfg, output_dir=tmp_path, **flags) == cli.EXIT_OK
    names = {path.name for path, _ in written}
    assert names >= {"solve": {"solution.json", "energy.json", "extension.json"},
                     "sweep": {"sobolev.json", "sol_m0.5.json", "sol_m0.1.json", "limit.json"},
                     "verify": {"verify_report.json"}}[mode]
    for path, doc in written:
        assert _same(json.loads(path.read_text()), doc), path.name


def test_trace_determinism(tmp_path):
    # identical config + seed: byte-identical solver traces
    for sub in ("a", "b"):
        cfg = cli.parse_config(_doc())
        cli.run(cfg, output_dir=tmp_path / sub, solver_trace=True)
    a = (tmp_path / "a" / "solver_trace.csv").read_bytes()
    b = (tmp_path / "b" / "solver_trace.csv").read_bytes()
    assert a == b


def test_sweep_mode(tmp_path):
    cfg = cli.parse_config(_doc(mode="sweep", m_list=[0.5, 0.1]))
    code = cli.run(cfg, output_dir=tmp_path)
    assert code == cli.EXIT_OK
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "m,alpha,hs_norm_T,l2_norm,residual,status"
    assert len(rows) == 3
    assert (tmp_path / "limit.json").exists()
    assert (tmp_path / "sol_m0.5.json").exists()


def test_sweep_mass_above_m0_exits_config(tmp_path):
    cfg = cli.parse_config(_doc(mode="sweep", m_list=[50.0, 0.1]))
    with pytest.raises(ValidationError):
        cli.run(cfg, output_dir=tmp_path)


def test_diagnose_mode(tmp_path):
    cfg = cli.parse_config(_doc())
    cli.run(cfg, output_dir=tmp_path)
    dcfg = cli.parse_config(_doc(mode="diagnose",
                                 solution_file=str(tmp_path / "solution.json")))
    code = cli.run(dcfg, output_dir=tmp_path)
    assert code == cli.EXIT_OK
    doc = json.loads((tmp_path / "diagnose.json").read_text())
    assert len(doc["bootstrap"]) >= 3
    assert doc["holder_alpha"] is None or 0 < doc["holder_alpha"] < 1


def test_diagnose_samples_the_solution_once(tmp_path, monkeypatch):
    # the checked samples of the solution file feed both diagnostics
    cli.run(cli.parse_config(_doc()), output_dir=tmp_path)
    calls = []

    def counted(S):
        calls.append(S)
        return inverse_transform(S)

    monkeypatch.setattr(cli, "inverse_transform", counted)
    dcfg = cli.parse_config(_doc(mode="diagnose", solution_file=str(tmp_path / "solution.json")))
    assert cli.run(dcfg, output_dir=tmp_path) == cli.EXIT_OK
    doc = json.loads((tmp_path / "diagnose.json").read_text())
    assert len(doc["bootstrap"]) >= 3 and "holder_alpha" in doc
    assert len(calls) == 1


def test_diagnose_without_a_holder_step(tmp_path, capsys):
    # at n = 4 the only step is h = T/4, the scale the Holder exponent is measured against
    u = forward_transform(field_from_function(TorusGrid(1, 2 * np.pi, 4), np.cos))
    (tmp_path / "cos.json").write_text(json.dumps(spectrum_to_json(u)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(("grid", "n"), 4, mode="diagnose",
                                         solution_file=str(tmp_path / "cos.json"))))
    assert cli.main(["diagnose", "--config", str(cfg_path), "--output", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "diagnose.json").read_text())
    assert doc["holder_alpha"] is None
    assert doc["holder_note"].startswith("DomainError: holder_proxy needs a step h < T/4")


@pytest.mark.parametrize("m", [0.0, 1e-300])
def test_verify_at_zero_mass_exits_ok(tmp_path, m):
    # the k = 0 mode has a zero multiplier and stays in the L2 metric of the X-gradient
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(("frac", "m"), m, mode="verify")))
    assert cli.main(["verify", "--config", str(cfg_path), "--output", str(tmp_path)]) == 0


def test_verify_reports_a_violated_hypothesis(tmp_path, monkeypatch):
    # a HypothesisViolated from the hypothesis checks fails that property only
    def violated(*args):
        raise HypothesisViolated("f5", witness=(1.0, -3.0))

    monkeypatch.setattr(cli, "verify_hypotheses", violated)
    assert cli.run(cli.parse_config(_doc(mode="verify")), output_dir=tmp_path) == cli.EXIT_VERIFY
    props = json.loads((tmp_path / "verify_report.json").read_text())["properties"]
    failed = [pr for pr in props if not pr["passed"]]
    assert [pr["name"] for pr in failed] == ["hypotheses_hold_for_shipped_family"]
    assert failed[0]["detail"].startswith("HypothesisViolated: ")


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_doc(mode="verify"))
    assert cli.main(["verify", "--config", str(cfg_path), "--output", str(tmp_path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.main(["solve", "--config", str(bad)]) == cli.EXIT_CONFIG
    sweep_bad = tmp_path / "sweep_bad.json"
    sweep_bad.write_text(_doc(mode="sweep", m_list=[50.0, 0.1]))
    assert cli.main(["sweep", "--config", str(sweep_bad),
                     "--output", str(tmp_path)]) == cli.EXIT_CONFIG


def _with(path, value, **overrides):
    doc = json.loads(_doc(**overrides))
    *parents, key = path
    sec = doc
    for name in parents:
        sec = sec[name]
    sec[key] = value
    return doc


def _extreme(mode, N, n, T, s=0.5, m=1.0):
    """A config at an extreme period: pure power p = 1.5 and, for a sweep,
    the masses [0.05, 0.01]."""
    doc = _with(("grid",), {"N": N, "T": T, "n": n}, mode=mode, frac={"s": s, "m": m},
                nonlinearity={"kind": "pure_power", "p": 1.5})
    if mode == "sweep":
        doc["m_list"] = [0.05, 0.01]
    return doc


MALFORMED = [
    pytest.param("solve", _with(("grid", "N"), "x"), id="grid.N"),
    pytest.param("solve", _with(("frac", "s"), "x"), id="frac.s"),
    pytest.param("solve", _with(("nonlinearity", "p"), "x"), id="nonlinearity.p"),
    pytest.param("solve", _with(("nonlinearity",), {"kind": "modulated_power", "p": 3,
                                                    "a_values": [1.0, 2.0]}),
                 id="nonlinearity.a_values"),
    pytest.param("solve", _with(("solver", "max_iters"), "x"), id="solver.max_iters"),
    pytest.param("solve", _with(("solver", "grid_A"), "ab"), id="solver.grid_A"),
    pytest.param("solve", _with(("seed",), "x"), id="seed"),
    pytest.param("solve", _with(("seed",), -1), id="seed-negative"),
    pytest.param("sweep", _with(("m_list",), ["a"], mode="sweep"), id="m_list"),
    pytest.param("sweep", _with(("m_list",), [0.5, "nan"], mode="sweep"), id="m_list-nan"),
    pytest.param("sweep", _with(("m_list",), [0.1], mode="sweep"), id="m_list-one-mass"),
    pytest.param("solve", _with(("grid", "n"), 64.9), id="grid.n-fraction"),
    pytest.param("verify", _with(("grid", "n"), 10**40, mode="verify"), id="grid.n-huge"),
    pytest.param("solve", _with(("grid", "N"), True), id="grid.N-bool"),
    pytest.param("solve", _with(("solver", "max_iters"), 1.5), id="solver.max_iters-fraction"),
    pytest.param("solve", _with(("seed",), 1.5), id="seed-fraction"),
    pytest.param("solve", _with(("seed",), True), id="seed-bool"),
    pytest.param("solve", _with(("grid", "T"), "inf"), id="grid.T-inf"),
    pytest.param("solve", _with(("grid", "T"), 10**400), id="grid.T-overflow"),
    pytest.param("sweep", _with(("m_list",), [10**400, 0.1], mode="sweep"),
                 id="m_list-overflow"),
    pytest.param("solve", _with(("frac", "m"), "nan"), id="frac.m-nan"),
    pytest.param("solve", _with(("frac", "m"), 1e200), id="frac.m-multiplier-overflow"),
    pytest.param("solve", _with(("grid", "T"), 1e-300), id="grid.T-multiplier-overflow"),
    pytest.param("solve", _with(("frac", "m"), 0.0), id="frac.m-zero-solve"),
    pytest.param("solve", _with(("nonlinearity", "r0"), "nan"), id="nonlinearity.r0-nan"),
    # an explicit mu = 0 is an AR exponent outside (2, p+1], not an absent one
    pytest.param("solve", _with(("nonlinearity", "mu"), 0), id="nonlinearity.mu-zero"),
    pytest.param("solve", _with(("nonlinearity", "mu"), -0.0), id="nonlinearity.mu-negative-zero"),
    # verify_hypotheses samples f at t = +-10 r0, where (10 r0)^30 overflows
    pytest.param("verify", _with(("nonlinearity",), {"kind": "pure_power", "p": 30, "r0": 1e10},
                                 mode="verify"), id="nonlinearity.r0-f-overflow"),
    pytest.param("solve", _with(("solver", "ps_tol"), "nan"), id="solver.ps_tol-nan"),
    pytest.param("solve", _with(("solver", "R"), "inf"), id="solver.R-inf"),
    pytest.param("diagnose", _with(("solution_file",), 5, mode="diagnose"),
                 id="solution_file-type"),
    pytest.param("diagnose", _with(("solution_file",), "{tmp}/absent.json", mode="diagnose"),
                 id="solution_file-missing"),
    pytest.param("diagnose", _with(("solution_file",), "{tmp}", mode="diagnose"),
                 id="solution_file-directory"),
    pytest.param("diagnose", _with(("solution_file",), "{tmp}/not-json.txt", mode="diagnose"),
                 id="solution_file-not-json"),
    pytest.param("diagnose", _with(("solution_file",), "{tmp}/other-grid.json", mode="diagnose"),
                 id="solution_file-other-grid"),
    pytest.param("diagnose", _with(("solution_file",), "{tmp}/nan.json", mode="diagnose"),
                 id="solution_file-nan"),
    pytest.param("diagnose", _with(("solution_file",), "{tmp}/field.json", mode="diagnose"),
                 id="solution_file-field"),
    pytest.param("diagnose", _with(("solution_file",), "{tmp}/huge.json", mode="diagnose"),
                 id="solution_file-samples-overflow"),
    pytest.param("diagnose", _with(("solution_file",), "{tmp}/non-hermitian.json",
                                   mode="diagnose"), id="solution_file-non-hermitian"),
    pytest.param("sweep", _with(("grid", "T"), 1e170, mode="sweep", m_list=[0.5, 0.1]),
                 id="grid.T-sweep-weights-underflow"),
    # the cell volume (T/n)^N leaves the floats, on the grid or on the padded grid
    pytest.param("sweep", _extreme("sweep", 3, 4, 1e150), id="grid.T-cell-overflow-sweep"),
    pytest.param("solve", _extreme("solve", 3, 4, 1e150), id="grid.T-cell-overflow-solve"),
    pytest.param("verify", _extreme("verify", 2, 8, 1e300), id="grid.T-cell-overflow-verify"),
    pytest.param("sweep", _extreme("sweep", 3, 4, 1e-150), id="grid.T-cell-underflow-sweep"),
    pytest.param("solve", _extreme("solve", 3, 4, 6e-108), id="grid.T-padded-cell-underflow"),
    # p > 30 is refused; from p = 54 on the sampled (f3) check fails too
    pytest.param("verify", _with(("grid", "n"), 16, mode="verify", seed=1,
                                 nonlinearity={"kind": "pure_power", "p": 60.0}),
                 id="nonlinearity.p-60-verify"),
    pytest.param("verify", _with(("grid", "n"), 16, mode="verify", seed=1,
                                 nonlinearity={"kind": "pure_power", "p": 1000.0, "r0": 0.1}),
                 id="nonlinearity.p-1000-r0-verify"),
    # q = 2N/(N - 2s) is near 4e9: |u|^(q-1) overflows in the Sobolev ascent,
    # each start ends there, and the estimate m0 = 0 admits no mass
    pytest.param("sweep", _with(("grid",), {"N": 2, "T": 6.283185307179586, "n": 8},
                                frac={"s": 0.999999999, "m": 0.3}, mode="sweep", seed=26,
                                m_list=[0.3, 0.1, 0.01]),
                 id="frac.s-near-1-sweep-ascent-overflow"),
    # its twin: q = 2N/(N - 2s) is near 2e6, |u|^q underflows on every
    # start, and C_sharp = 0 leaves no estimate m0 = 1/(2 C^2)
    pytest.param("sweep", _with(("grid",), {"N": 2, "T": 100.0, "n": 16},
                                frac={"s": 0.999999, "m": 1.0}, mode="sweep", seed=88,
                                nonlinearity={"kind": "pure_power", "p": 2.5},
                                m_list=[0.1, 0.001, 1e-06]),
                 id="frac.s-near-1-sweep-ascent-underflow"),
    pytest.param("sweep", _with(("mode",), "solve"), id="sweep-on-solve-config"),
    pytest.param("solve", {k: v for k, v in _with(("mode",), "verify").items()
                           if k != "nonlinearity"}, id="solve-on-verify-config"),
]


@pytest.mark.parametrize("mode,doc", MALFORMED)
def test_main_malformed_config_exits_config(tmp_path, capsys, mode, doc):
    (tmp_path / "not-json.txt").write_text("u = cos(x)\n")
    other = Spectrum(TorusGrid(2, 2 * np.pi, 8), np.zeros((8, 8), complex))
    (tmp_path / "other-grid.json").write_text(json.dumps(spectrum_to_json(other)))
    nan = Spectrum(TorusGrid(1, 2 * np.pi, 64), np.full(64, np.nan, complex))
    (tmp_path / "nan.json").write_text(json.dumps(spectrum_to_json(nan)))
    field = {"grid": {"N": 1, "T": 2 * np.pi, "n": 64}, "kind": "field", "data": [0.0] * 64}
    (tmp_path / "field.json").write_text(json.dumps(field))
    huge = Spectrum(TorusGrid(1, 2 * np.pi, 64), np.full(64, 1e308, complex))
    (tmp_path / "huge.json").write_text(json.dumps(spectrum_to_json(huge)))
    skew = np.zeros(64, complex)
    skew[0] = 1j  # an imaginary mean: no real field has this spectrum
    skew = Spectrum(TorusGrid(1, 2 * np.pi, 64), skew)
    (tmp_path / "non-hermitian.json").write_text(json.dumps(spectrum_to_json(skew)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc).replace("{tmp}", str(tmp_path)))
    code = cli.main([mode, "--config", str(cfg_path), "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("doc", [
    pytest.param(_with(("grid", "T"), 1e300), id="grid.T-huge"),
    pytest.param(_with(("nonlinearity",), {"kind": "pure_power", "p": 1 + 1e-12}),
                 id="nonlinearity.p-near-1"),
])
def test_main_degenerate_ridge_exits_solver(tmp_path, capsys, doc):
    # the certified ridge level is not positive in floating point
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = cli.main(["solve", "--config", str(cfg_path), "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SOLVER
    assert len(err.splitlines()) == 1 and err.startswith("solver error: NoPositiveRidge: ")


@pytest.mark.parametrize("doc,want,lines", [
    # the mean mode m^{-s} = 1e150 of the linking rectangle
    pytest.param(_with(("frac", "m"), 1e-300), cli.EXIT_OK, [], id="frac.m-tiny"),
    # caps seeded from a certified radius near 2e50
    pytest.param(_with(("grid", "T"), 1e-100), cli.EXIT_SOLVER, ["solver error: Stalled: "],
                 id="grid.T-tiny"),
    # caps so large that |U|^2 overflows: the boundary level is not finite
    pytest.param(_with(("solver",), {"R": 1e300, "R_prime": 1e300}), cli.EXIT_SOLVER,
                 ["solver error: BoundaryNotNegative: energy not finite "],
                 id="solver.R-R_prime-huge"),
    pytest.param(_with(("solver",), {"R": 1e300}), cli.EXIT_SOLVER,
                 ["solver error: BoundaryNotNegative: energy not finite "],
                 id="solver.R-huge-auto-R_prime"),
    pytest.param(_with(("solver",), {"R": 1e200, "R_prime": 1e200}), cli.EXIT_SOLVER,
                 ["solver error: BoundaryNotNegative: energy not finite "],
                 id="solver.R-R_prime-1e200"),
    # verify's finite-difference levels at a multiplier near 1e300; the
    # extension properties fail at s this close to 1
    pytest.param(_with(("grid",), {"N": 2, "T": 6.283185307179586, "n": 8},
                       frac={"s": 0.999999999, "m": 1e150}, mode="verify", seed=93,
                       nonlinearity={"kind": "pure_power", "p": 2.0}),
                 cli.EXIT_VERIFY, [], id="verify-frac.m-1e150"),
])
def test_main_energy_overflow_is_silent(tmp_path, capsys, doc, want, lines):
    # |u|^{p+1} (or, at huge caps, |U|^2) overflows on the sampled rectangle,
    # and no overflow warning reaches stderr
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = cli.main([doc["mode"], "--config", str(cfg_path), "--output", str(tmp_path)])
    assert code == want
    err = capsys.readouterr().err
    assert "Warning" not in err
    assert len(err.splitlines()) == len(lines)
    assert all(got.startswith(line) for got, line in zip(err.splitlines(), lines))


# One sweep, and a tolerance no polish reaches: the run does not converge.
_UNREACHABLE = {"max_iters": 1, "ps_tol": 1e-30}


@pytest.mark.parametrize("mode,doc,prefix", [
    pytest.param("solve", _with(("solver",), _UNREACHABLE), "solver error: MaxIters: ",
                 id="solve"),
    pytest.param("sweep", _with(("solver",), _UNREACHABLE, mode="sweep", m_list=[0.5, 0.1]),
                 "solver error: Failed: DomainError: solver status MaxIters", id="sweep"),
    # the Sobolev ascent's trial steps overflow the L^q norm; they are rejected
    pytest.param("sweep", _with(("grid",), {"N": 1, "T": 1e-30, "n": 16}, mode="sweep",
                                m_list=[0.05, 0.01]),
                 "solver error: Failed: DomainError: solver status Stalled", id="sweep-T-tiny"),
    # the Sobolev ascent's factor num ** (1 - q), q = 200, overflows, or num underflows
    # to 0 and the factor is a division by zero; the start ends there
    pytest.param("sweep", _extreme("sweep", 2, 8, 1e-150, s=0.99, m=1e-300),
                 "solver error: Failed: NoPositiveRidge: ", id="sweep-ascent-direction-overflow"),
    pytest.param("sweep", _extreme("sweep", 2, 4, 1e-150, s=0.99),
                 "solver error: Failed: NoPositiveRidge: ", id="sweep-ascent-norm-underflow"),
    # the peak and the sphere step overflow in the minimax descent, silently
    pytest.param("solve", _extreme("solve", 1, 8, 1e-100, s=0.25, m=1e-300),
                 "solver error: Stalled: ", id="solve-1d-T-1e-100-descent-overflow"),
    pytest.param("solve", _extreme("solve", 1, 8, 1e-30, s=0.25, m=1e-300),
                 "solver error: Stalled: ", id="solve-1d-T-1e-30-descent-overflow"),
    pytest.param("solve", _extreme("solve", 2, 8, 1e-30, s=0.99),
                 "solver error: Stalled: ", id="solve-2d-T-1e-30-descent-overflow"),
    pytest.param("sweep", _extreme("sweep", 2, 8, 1e-30, s=0.99),
                 "solver error: Failed: DomainError: solver status Stalled",
                 id="sweep-2d-T-1e-30-descent-overflow"),
])
def test_main_unconverged_run_exits_solver(tmp_path, capsys, mode, doc, prefix):
    # a run that ends without converging says why, in one line
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = cli.main([mode, "--config", str(cfg_path), "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SOLVER
    assert len(err.splitlines()) == 1 and err.startswith(prefix)


@pytest.mark.parametrize("mode,doc", [
    pytest.param("solve", _with(("solver", "max_iters"), 1), id="solve"),
    pytest.param("sweep", _with(("solver", "max_iters"), 1, mode="sweep", m_list=[0.5, 0.1]),
                 id="sweep"),
])
def test_main_converged_last_sweep_exits_ok(tmp_path, capsys, mode, doc):
    # the polish accepted in the only sweep meets the stopping rule
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = cli.main([mode, "--config", str(cfg_path), "--output", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == ""


# Any JSON value, for keys that get a value of the wrong type.
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
# Values at the edges of the types: json.loads reads NaN and Infinity, and
# 10**400 is a JSON number too large for a float.
_EDGE = st.sampled_from([float("nan"), float("-inf"), 10**400, -1, 0, True, 64.5, "x"])

_CONFIG_PATHS = [("grid",), ("grid", "N"), ("grid", "T"), ("grid", "n"), ("frac",),
                 ("frac", "s"), ("frac", "m"), ("nonlinearity",), ("nonlinearity", "kind"),
                 ("nonlinearity", "p"), ("nonlinearity", "mu"), ("nonlinearity", "r0"),
                 ("nonlinearity", "a_values"), ("solver",), ("solver", "R"),
                 ("solver", "R_prime"), ("solver", "ps_tol"), ("solver", "max_iters"),
                 ("mode",), ("m_list",), ("seed",), ("solution_file",)]


@st.composite
def _config_docs(draw):
    """A valid config document, then up to four edits, each replacing a value
    by an edge value or any JSON value, deleting a key or adding an unknown one."""
    N, n = draw(st.integers(1, 3)), draw(st.sampled_from([4, 8]))
    # s in [0.3, 0.5] keeps every p < 1.5 subcritical for N <= 3
    nl = {"kind": "pure_power", "p": draw(st.floats(1.1, 1.45)), "r0": 1.0}
    if draw(st.booleans()):
        nl = {**nl, "kind": "modulated_power",
              "a_values": draw(st.lists(st.floats(0.5, 2.0), min_size=n**N, max_size=n**N))}
    doc = {
        "grid": {"N": N, "T": draw(st.floats(0.1, 10.0)), "n": n},
        "frac": {"s": draw(st.floats(0.3, 0.5)), "m": draw(st.floats(0.1, 2.0))},
        "nonlinearity": nl,
        "solver": {"R": draw(st.floats(0.0, 5.0)), "ps_tol": draw(st.floats(1e-12, 1e-4)),
                   "max_iters": draw(st.integers(1, 100))},
        "mode": draw(st.sampled_from(["verify", "solve", "sweep", "diagnose"])),
        "m_list": sorted(draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5,
                                       unique=True)), reverse=True),
        "seed": draw(st.integers(0, 2**40)),
        "solution_file": draw(st.text(max_size=8)),
    }
    for _ in range(draw(st.integers(0, 4))):
        *parents, key = draw(st.sampled_from(_CONFIG_PATHS))
        sec = doc
        for name in parents:
            sec = sec.get(name) if isinstance(sec, dict) else None
        if not isinstance(sec, dict):
            continue
        edit = draw(st.sampled_from(["edge", "replace", "delete", "unknown"]))
        if edit == "edge":
            sec[key] = draw(_EDGE)
        elif edit == "replace":
            sec[key] = draw(_ANY_JSON)
        elif edit == "delete":
            sec.pop(key, None)
        else:
            sec["unknown"] = draw(_ANY_JSON)
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=_config_docs())
def test_parse_config_fuzz(doc):
    # a config document parses or is refused with one of the two config errors
    try:
        cfg = cli.parse_config(json.dumps(doc))
    except (ParseError, ValidationError):
        return
    assert isinstance(cfg, cli.RunConfig)


def test_output_files_roundtrip(tmp_path):
    cfg = cli.parse_config(_doc())
    cli.run(cfg, output_dir=tmp_path)
    for name in ("solution.json",):
        obj = object_from_json(json.loads((tmp_path / name).read_text()))
        assert isinstance(obj, Spectrum)
        assert np.all(np.isfinite(obj.coeffs.view(float)))
