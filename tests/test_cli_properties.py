"""Property tests of the CLI exit-code contract: on any config, catalog or CSV input,
`main` returns 0, 2 or 3 and never raises."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from remotehom.cli_io import main

# values a config key may be corrupted to; no huge finite numbers, which are
# valid input that only asks for an enormous run
BAD_VALUES = [math.nan, math.inf, -math.inf, None, "x", [1], {"k": 1}, -1, 0, True]


def _or_any_positive(physical: st.SearchStrategy) -> st.SearchStrategy:
    """Half of the draws from `physical`, half log-uniform over the positive
    finite floats (5e-324 to 1.8e308)."""
    return st.one_of(physical, st.floats(-323.3, 308.25).map(lambda e: 10.0 ** e))


# the emitter's rate and time keys, each drawn half from its physical range and
# half over all positive finite floats: there a rate 1000/t1_ps, the 10-lifetime
# grid span, a squared rate or width (the overlap then takes its limit), the
# 16-width detuning span or predict-delay's 3 tau_c delay span may overflow
EMITTER = {key: _or_any_positive(physical) for key, physical in {
    "t1_ps": st.floats(60.0, 400.0), "gamma_star_ns_inv": st.floats(0.0, 2.0),
    "delta_omega_ns_inv": st.floats(0.0, 10.0), "tau_c_ns": st.floats(1.0, 5000.0),
    "fss_uev": st.floats(0.0, 10.0)}.items()}
# of either sign: its square may overflow
MEAN_DETUNING = _or_any_positive(st.floats(0.0, 20.0)).flatmap(lambda d: st.sampled_from([d, -d]))


def _emitter() -> st.SearchStrategy:
    return st.fixed_dictionaries({
        **EMITTER,
        "wavelength_nm": st.just(924.847),
        "theta_rad": st.floats(-3.2, 3.2),
        "charge": st.sampled_from(["X", "CX"]),
        "brightness": st.floats(0.2, 1.0),
        "sideband_fraction": st.floats(0.0, 0.5),
    })


def _sane_config() -> st.SearchStrategy:
    # the experiment keys stay in their physical ranges: they set the size of a run
    return st.fixed_dictionaries({
        "pair": st.fixed_dictionaries({
            "a": _emitter(), "b": _emitter(), "mean_detuning_ns_inv": MEAN_DETUNING,
        }, optional={"s_classical": _or_any_positive(st.floats(0.0, 1.0))}),
        "experiment": st.fixed_dictionaries({
            "n_pulses": st.integers(2_000, 20_000),
            "rep_period_ns": st.floats(5.0, 20.0),
            "jitter_sigma_ps": st.floats(0.0, 100.0),
            "g2": st.floats(0.0, 0.5),
            "blink_on_prob": st.floats(0.5, 1.0),
            "blink_dwell_ns": st.floats(20.0, 500.0),
            "bin_width_ps": st.floats(20.0, 200.0),
            "window_peaks": st.integers(1, 4),
        }),
        "seed": st.integers(0, 2**31),
    }, optional={"filter": st.fixed_dictionaries({
        "center_nm": st.just(924.847), "fwhm_pm": _or_any_positive(st.floats(5.0, 50.0))})})


def _paths(d: dict, prefix: tuple = ()) -> list[tuple]:
    out = []
    for key, value in d.items():
        out.append(prefix + (key,))
        if isinstance(value, dict):
            out.extend(_paths(value, prefix + (key,)))
    return out


def _corrupt(draw, cfg: dict) -> dict:
    """`cfg` with up to two keys deleted, added or corrupted."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        paths = _paths(cfg)
        if not paths:  # everything deleted
            break
        path = draw(st.sampled_from(paths))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["delete", "unknown", "corrupt"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "unknown":
            parent["bogus_ps"] = 1.0
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    return cfg


@st.composite
def configs(draw) -> dict:
    """A sane config with up to two keys deleted, added or corrupted."""
    return _corrupt(draw, draw(_sane_config()))


def extreme_config(**a) -> dict:
    """A minimal config whose source a (T1 162 ps unless given) has the keys `a`."""
    return {"pair": {"a": {"t1_ps": 162.0, **a}, "b": {"t1_ps": 128.0}},
            "experiment": {"n_pulses": 20000}, "seed": 7}


def floor_config(t1_ps: float) -> dict:
    """A minimal config with lifetimes t1_ps and 1.27 t1_ps: near the floor of t1_ps,
    where `extreme_config`'s b at 128 ps would exceed the 2,560 lifetime-ratio cap."""
    return {"pair": {"a": {"t1_ps": t1_ps}, "b": {"t1_ps": 1.27 * t1_ps}},
            "experiment": {"n_pulses": 20000}, "seed": 7}


SANE_SOURCE = st.fixed_dictionaries({
    "emitter": _emitter(),
    "cavity": st.fixed_dictionaries({"x_c_nm": st.floats(924.5, 925.2), "q": st.floats(1e3, 4e3)},
                                    optional={"detuning_pm": st.floats(0.0, 200.0)}),
    "tuning_range_nm": st.tuples(st.floats(924.5, 925.2), st.floats(0.01, 0.4)).map(
        lambda lo_width: [lo_width[0], lo_width[0] + lo_width[1]]),
}, optional={"peak_brightness": st.floats(0.05, 0.3)})
BAD_RANGES = [[], [924.7], [924.6, 924.8, 925.0], [924.6, math.nan], [True, 925.0], ["924.6", 925.0],
              [-5.0, -1.0]]


@st.composite
def catalogs(draw) -> dict:
    """A sane catalog of one to four sources on samples I-III, in which one
    source and the catalog itself may have up to two keys deleted, added or
    corrupted, and one source or its tuning range may be replaced by a bad value."""
    sources = draw(st.lists(SANE_SOURCE, min_size=1, max_size=4))
    for i, src in enumerate(sources):
        src["label"] = f"{draw(st.sampled_from(['I', 'II', 'III']))}_{i}"
    i = draw(st.integers(0, len(sources) - 1))
    _corrupt(draw, sources[i])
    bad = draw(st.sampled_from([None, None, "source", "range"]))
    if bad == "source":
        sources[i] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    elif bad == "range":
        sources[i]["tuning_range_nm"] = copy.deepcopy(draw(st.sampled_from(BAD_RANGES)))
    return _corrupt(draw, {"sources": sources})


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3), code
    return code, out.getvalue()


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def assert_strict_json(text: str) -> None:
    json.loads(text, parse_constant=_reject_constant)


FILTER_OVERRIDE = st.sampled_from([None, None, "20", "0.5", "nan"])
# derandomized, so that every run of the suite draws the same examples
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(cfg=configs(), fwhm=FILTER_OVERRIDE)
@example(cfg=extreme_config(t1_ps=1e-320), fwhm=None)
@example(cfg=extreme_config(t1_ps=1e308), fwhm=None)
@example(cfg=floor_config(7e-306), fwhm=None)
@example(cfg=floor_config(1.2e-305), fwhm=None)
def test_overlap_exit_code_contract(cfg, fwhm):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(cfg))
        argv = ["overlap", "--config", str(path)]
        code, out = run_cli(argv + (["--filter-fwhm-pm", fwhm] if fwhm else []))
        if code == 0:
            assert_strict_json(out)


@PROPERTY
@given(cfg=configs(), fwhm=FILTER_OVERRIDE,
       source=st.sampled_from(["a", "b"]))
@example(cfg=extreme_config(t1_ps=1e-320), fwhm=None, source="a")
@example(cfg=extreme_config(t1_ps=1e308), fwhm=None, source="a")
@example(cfg=extreme_config(tau_c_ns=1e308), fwhm=None, source="a")
def test_predict_delay_exit_code_contract(cfg, fwhm, source):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(cfg))
        argv = ["predict-delay", "--config", str(path), "--out", tmp, "--source", source]
        run_cli(argv + (["--filter-fwhm-pm", fwhm] if fwhm else []))


@PROPERTY
@given(cfg=configs(), fwhm=FILTER_OVERRIDE)
@example(cfg=extreme_config(delta_omega_ns_inv=1e200), fwhm=None)
@example(cfg=floor_config(7e-306), fwhm=None)
@example(cfg=floor_config(1.2e-305), fwhm=None)
def test_simulate_exit_code_contract(cfg, fwhm):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(cfg))
        argv = ["simulate", "--config", str(path), "--out", tmp, "--workers", "2"]
        code, out = run_cli(argv + (["--filter-fwhm-pm", fwhm] if fwhm else []))
        if code == 0:
            assert_strict_json(out)
            assert_strict_json((Path(tmp) / "visibility.json").read_text())


@PROPERTY
@given(catalog=catalogs())
def test_match_pairs_exit_code_contract(catalog):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "catalog.json"
        path.write_text(json.dumps(catalog))
        code, out = run_cli(["match-pairs", "--config", str(path), "--out", tmp])
        if code == 0:
            assert_strict_json(out)


# --- CSV inputs of the fit commands -------------------------------------------

BAD_CELLS = ["nan", "inf", "-inf", "1e999", "abc", ""]


@st.composite
def csv_text(draw, header: str, columns: list[np.ndarray]) -> str:
    """A CSV of `columns` under `header`, possibly with one defect: a wrong
    header, a short row or a cell that is not a finite number."""
    rows = [[repr(float(v)) for v in row] for row in zip(*columns)]
    defect = draw(st.sampled_from([None, None, None, "comment", "cell", "short", "header"]))
    if rows and defect in ("cell", "short"):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if defect == "short":
            del row[1:]
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_CELLS))
    head = {"comment": "# a comment\n" + header, "header": "x,y,z"}.get(defect, header)
    return "\n".join([head] + [",".join(r) for r in rows]) + "\n"


def _fit_exit_code_contract(argv: list[str]) -> None:
    code, out = run_cli(argv)
    if code == 0 or out:
        assert_strict_json(out)


def decay_trace(seed: int, n: int, span_ps: float, t1_ps: float, amplitude: float,
                beating: bool) -> tuple[np.ndarray, np.ndarray]:
    """Poisson counts of a decay (or a 6.5 ueV beat) over a background of 5 on `n` bins."""
    t = np.linspace(0.0, span_ps, n)
    shape = np.sin(6.5 * t / 1316.4) ** 2 if beating else 1.0
    return t, np.random.default_rng(seed).poisson(amplitude * shape * np.exp(-t / t1_ps) + 5.0)


@st.composite
def lifetime_csvs(draw) -> tuple[str, str]:
    """(model, CSV text) of a trace over a log-uniform span of 1e-3 to 1e6 ps,
    with T1 log-uniform over 1 % to 100 % of the span: above a third of it the
    fit refuses the trace."""
    model = draw(st.sampled_from(["mono_exp", "fss_beating"]))
    seed, n = draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([400, 150, 400, 0, 5]))
    span = 10.0 ** draw(st.floats(-3.0, 6.0))
    t1 = span * 10.0 ** draw(st.floats(-2.0, 0.0))
    t, counts = decay_trace(seed, n, span, t1, draw(st.floats(0.0, 3e4)), model == "fss_beating")
    return model, draw(csv_text("time_ps,counts", [t, counts]))


# Poisson(5) noise over 3.5 ps: a trial step once overflowed the beating model
SHORT_NOISE_CSV = "\n".join(["time_ps,counts"] + [
    f"{float(x)!r},{float(c)!r}" for x, c in zip(*decay_trace(111, 150, 3.5, 1.0, 0.0, True))
]) + "\n"


@PROPERTY
@given(trace=lifetime_csvs(), background=st.sampled_from(["10", "0", "10", "nan"]))
@example(trace=("fss_beating", SHORT_NOISE_CSV), background="0")
def test_fit_lifetime_exit_code_contract(trace, background):
    model, text = trace
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_text(text)
        _fit_exit_code_contract(["fit-lifetime", str(path), "--model", model,
                                 "--background", background])


@PROPERTY
@given(data=st.data(), n=st.sampled_from([300, 60, 300, 0, 5]))
def test_fit_reflectivity_exit_code_contract(data, n):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    fwhm = data.draw(st.floats(0.01, 1.0))
    wl = np.linspace(924.7 - data.draw(st.floats(0.5, 8.0)) * fwhm,
                     924.7 + data.draw(st.floats(0.5, 8.0)) * fwhm, n)
    refl = 0.97 - data.draw(st.floats(0.0, 0.9)) * (fwhm / 2) ** 2 \
        / ((wl - 924.7) ** 2 + (fwhm / 2) ** 2) + rng.normal(0.0, 0.01, n)
    text = data.draw(csv_text("wavelength_nm,reflectivity", [wl, refl]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "refl.csv"
        path.write_text(text)
        _fit_exit_code_contract(["fit-reflectivity", str(path)])


@PROPERTY
@given(data=st.data(), n=st.sampled_from([8, 5, 8, 0, 2]),
       t1_ps=st.sampled_from(["162", "162", "0", "-5", "nan"]))
def test_fit_delay_exit_code_contract(data, n, t1_ps):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    delays = np.cumsum(rng.uniform(1.0, 500.0, n))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name in ("filtered", "unfiltered"):
            vis = 0.95 / (1.0 + data.draw(st.floats(0.0, 2.0)) * (1.0 - np.exp(-delays / 1400.0)))
            vis = np.clip(vis + rng.normal(0.0, 0.01, n), 0.0, 1.0)
            sigma = np.full(n, data.draw(st.sampled_from([0.0, 0.01])))
            paths.append(Path(tmp) / f"{name}.csv")
            paths[-1].write_text(data.draw(csv_text("delay_ns,visibility,sigma_v",
                                                    [delays, vis, sigma])))
        _fit_exit_code_contract(["fit-delay", *map(str, paths), "--t1-ps", t1_ps])
