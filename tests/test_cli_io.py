"""Config ingestion, catalog matching, pipeline artifacts, CLI contract."""

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from remotehom.units_core import Rate, Wavelength
from remotehom.wavepacket import Charge
from remotehom.cli_io import (
    CatalogEntry,
    CavityParams,
    SourceCatalog,
    config_hash,
    demo_catalog,
    emitter_from_dict,
    load_catalog,
    load_run_config,
    main,
    match_pairs,
    run_pipeline,
)


def write_config(tmp_path: Path, **overrides) -> Path:
    cfg = {
        "pair": {
            "a": {"t1_ps": 162.0, "gamma_star_ns_inv": 0.17,
                  "delta_omega_ns_inv": 4.7, "wavelength_nm": 924.847,
                  "sideband_fraction": 0.05},
            "b": {"t1_ps": 128.0, "gamma_star_ns_inv": 0.03,
                  "delta_omega_ns_inv": 2.12, "wavelength_nm": 924.847,
                  "sideband_fraction": 0.05},
            "s_classical": 0.986,
        },
        "experiment": {"n_pulses": 20000},
        "seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


# --- value types ------------------------------------------------------------

def test_cavity_params_rejects_non_positive_q():
    with pytest.raises(ValueError):
        CavityParams(Wavelength(924.7), 0.0, 0.0)


def demo_source(label: str) -> CatalogEntry:
    return next(s for s in demo_catalog().sources if s.label == label)


def test_catalog_entry_sample_prefix():
    entry = demo_source("II_A")
    assert entry.sample == "II"
    assert demo_source("I_B").sample == "I"


def test_catalog_rejects_duplicate_labels():
    e = demo_source("I_A")
    with pytest.raises(ValueError):
        SourceCatalog((e, e))


def test_catalog_rejects_inverted_range():
    e = demo_source("I_A")
    with pytest.raises(ValueError):
        CatalogEntry(e.label, e.emitter, e.cavity, (925.0, 924.6), e.peak_brightness)


# --- config hashing and parsing ---------------------------------------------

def test_config_hash_deterministic_and_order_free():
    h1 = config_hash({"b": 2, "a": 1})
    h2 = config_hash({"a": 1, "b": 2})
    assert h1 == h2
    assert len(h1) == 64


def test_config_hash_ignores_outputs():
    base = {"seed": 7, "outputs": "runs/x"}
    moved = {"seed": 7, "outputs": "elsewhere"}
    assert config_hash(base) == config_hash(moved)
    assert config_hash(base) != config_hash({"seed": 8, "outputs": "runs/x"})


def test_emitter_from_dict_defaults():
    src = emitter_from_dict({"t1_ps": 162.0})
    assert src.gamma_star.value == 0.0
    assert src.tau_c_ns == 1400.0
    assert src.charge is Charge.CX
    assert src.sideband_fraction == 0.05


def test_emitter_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unit suffixes"):
        emitter_from_dict({"t1_ps": 162.0, "gamma_star": 0.17})


def test_emitter_from_dict_charge_parsing():
    src = emitter_from_dict({"t1_ps": 162.0, "charge": "X", "fss_uev": 6.3})
    assert src.charge is Charge.X
    assert src.fss.value == 6.3


def test_load_run_config_basics(tmp_path):
    cfg, h = load_run_config(write_config(tmp_path))
    assert cfg.seed == 7
    assert cfg.experiment.n_pulses == 20000
    assert cfg.pair.s_classical == 0.986
    assert cfg.pair.filter is None
    assert len(h) == 64


def test_load_run_config_overrides(tmp_path):
    path = write_config(tmp_path)
    cfg, h_base = load_run_config(path)
    cfg2, h_seed = load_run_config(path, seed_override=99)
    assert cfg2.seed == 99
    assert h_seed != h_base
    cfg3, h_pulses = load_run_config(path, pulses_override=5000)
    assert cfg3.experiment.n_pulses == 5000
    assert h_pulses != h_base
    # outputs never enters the hash, so redirecting it is hash-neutral
    cfg4, h_out = load_run_config(path, out_override=str(tmp_path / "elsewhere"))
    assert cfg4.outputs == tmp_path / "elsewhere"
    assert h_out == h_base


def test_load_run_config_filter_applies_to_both_sources(tmp_path):
    path = write_config(tmp_path)
    plain, _ = load_run_config(path)
    filtered, _ = load_run_config(path, filter_fwhm_override=8.0)
    assert filtered.pair.filter is not None
    assert filtered.pair.filter.fwhm_pm == 8.0
    for before, after in zip((plain.pair.a, plain.pair.b),
                             (filtered.pair.a, filtered.pair.b)):
        assert after.delta_omega.value < before.delta_omega.value
        assert after.sideband_fraction == 0.0
        assert after.brightness < before.brightness
        assert after.t1_ps == before.t1_ps


def test_load_run_config_computes_s_when_omitted(tmp_path):
    cfg_dict = json.loads(write_config(tmp_path).read_text())
    del cfg_dict["pair"]["s_classical"]
    for src in cfg_dict["pair"].values():
        src["charge"] = "X"
    cfg_dict["pair"]["a"]["fss_uev"] = 6.3
    cfg_dict["pair"]["b"]["fss_uev"] = 6.7
    path = tmp_path / "computed.json"
    path.write_text(json.dumps(cfg_dict))
    cfg, _ = load_run_config(path)
    assert cfg.pair.s_classical == pytest.approx(0.9791, abs=1e-3)


def test_load_run_config_takes_integral_floats_as_ints(tmp_path):
    cfg_dict = json.loads(write_config(tmp_path).read_text())
    cfg_dict["experiment"].update(n_pulses=1e6, window_peaks=2.0)
    path = tmp_path / "floats.json"
    path.write_text(json.dumps(cfg_dict))
    cfg, _ = load_run_config(path)
    assert type(cfg.experiment.n_pulses) is int and cfg.experiment.n_pulses == 1_000_000
    assert type(cfg.experiment.window_peaks) is int and cfg.experiment.window_peaks == 2


def test_load_run_config_rejects_unknown_section_keys(tmp_path):
    cfg_dict = json.loads(write_config(tmp_path).read_text())
    cfg_dict["experiment"]["pulses"] = 1000
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg_dict))
    with pytest.raises(ValueError):
        load_run_config(path)


# --- pair matching ----------------------------------------------------------

def entry(label, lo, hi):
    base = demo_source("I_A")
    return CatalogEntry(label, base.emitter, base.cavity, (lo, hi), 0.1)


def test_match_pairs_intersection_interval():
    cat = SourceCatalog((entry("I_X", 924.6, 924.9), entry("II_Y", 924.847, 925.1)))
    pairs = match_pairs(cat)
    assert len(pairs) == 1
    a, b, (lo, hi) = pairs[0]
    assert (a, b) == ("I_X", "II_Y")
    assert lo == pytest.approx(924.847)
    assert hi == pytest.approx(924.9)


def test_match_pairs_disjoint_ranges():
    cat = SourceCatalog((entry("I_X", 924.0, 924.2), entry("II_Y", 924.5, 924.7)))
    assert match_pairs(cat) == []


def test_match_pairs_skips_same_sample():
    cat = SourceCatalog((entry("I_A", 924.6, 925.0), entry("I_B", 924.9, 925.2)))
    assert match_pairs(cat) == []


def test_match_pairs_demo_catalog_yields_four_pairs():
    pairs = match_pairs(demo_catalog())
    labels = {(a, b) for a, b, _ in pairs}
    assert labels == {("I_A", "II_A"), ("I_A", "II_B"),
                      ("I_A", "II_C"), ("I_B", "II_B")}
    widths = [hi - lo for _, _, (lo, hi) in pairs]
    assert widths == sorted(widths, reverse=True)


def test_match_pairs_order_invariant():
    cat = demo_catalog()
    shuffled = SourceCatalog(tuple(reversed(cat.sources)))
    assert match_pairs(cat) == match_pairs(shuffled)


def test_demo_catalog_tuning_floor():
    # II_A cannot tune below its brightest point at 924.847 nm
    assert demo_source("II_A").tuning_range_nm[0] == 924.847


def test_load_catalog_round_trip(tmp_path):
    payload = {"sources": [
        {"label": "I_A", "emitter": {"t1_ps": 162.0},
         "cavity": {"x_c_nm": 924.734, "q": 2900.0, "detuning_pm": 113.0},
         "tuning_range_nm": [924.6, 925.0], "peak_brightness": 0.124},
        {"label": "II_A", "emitter": {"t1_ps": 128.0},
         "cavity": {"x_c_nm": 924.817, "q": 1700.0},
         "tuning_range_nm": [924.847, 924.88]},
    ]}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(payload))
    catalog, h = load_catalog(path)
    entries = {s.label: s for s in catalog.sources}
    assert len(catalog.sources) == len(entries) == 2
    assert entries["I_A"].cavity.q == 2900.0
    assert entries["II_A"].peak_brightness == 1.0
    assert len(h) == 64


# --- pipeline ---------------------------------------------------------------

def test_run_pipeline_artifacts_and_summary(tmp_path):
    path = write_config(tmp_path, outputs=str(tmp_path / "run_out"))
    cfg, h = load_run_config(path)
    summary = run_pipeline(cfg, h)
    out = tmp_path / "run_out"
    for name in ("overlap.json", "histogram_par.csv", "histogram_perp.csv",
                 "visibility.json"):
        assert (out / name).exists()
    overlap = json.loads((out / "overlap.json").read_text())
    assert overlap["config_hash"] == h
    assert 0.0 <= summary["v_tpi"] <= 1.0
    assert summary["bound_satisfied"] in (True, False)
    vis = json.loads((out / "visibility.json").read_text())
    assert vis["config_hash"] == h
    assert vis["seed"] == 7
    first_line = (out / "histogram_par.csv").read_text().splitlines()[0]
    assert first_line == f"# config_hash={h}"


def test_run_pipeline_deterministic_across_workers(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "w1", tmp_path / "w4"
    cfg1, h = load_run_config(path, out_override=str(out1), workers=1)
    cfg4, h4 = load_run_config(path, out_override=str(out2), workers=4)
    assert h == h4
    run_pipeline(cfg1, h)
    run_pipeline(cfg4, h4)
    for name in ("overlap.json", "visibility.json", "histogram_par.csv",
                 "histogram_perp.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# --- CLI entry point --------------------------------------------------------

def test_cli_overlap_stdout_and_exit_code(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["overlap", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["s_classical"] == 0.986
    assert payload["m_averaged"] == pytest.approx(0.7191008, abs=1e-4)


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "sim"
    code = main(["simulate", "--config", str(path), "--out", str(out),
                 "--pulses", "20000", "--workers", "2"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert "v_tpi" in summary
    assert (out / "visibility.json").exists()


def test_cli_simulate_byte_identical_across_worker_counts(tmp_path, capsys):
    path = write_config(tmp_path)
    outs = []
    for workers, name in ((1, "a"), (3, "b")):
        out = tmp_path / name
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--workers", str(workers)]) == 0
        capsys.readouterr()
        outs.append(out)
    vis_a = (outs[0] / "visibility.json").read_bytes()
    vis_b = (outs[1] / "visibility.json").read_bytes()
    assert vis_a == vis_b


# the minimal run.json of the README, verbatim
README_RUN = {
    "pair": {
        "a": {"t1_ps": 162.0, "gamma_star_ns_inv": 0.17, "delta_omega_ns_inv": 4.7,
              "tau_c_ns": 1400.0, "wavelength_nm": 924.847, "sideband_fraction": 0.05},
        "b": {"t1_ps": 128.0, "gamma_star_ns_inv": 0.03, "delta_omega_ns_inv": 2.12,
              "tau_c_ns": 1400.0, "wavelength_nm": 924.847, "sideband_fraction": 0.05},
        "s_classical": 0.986,
    },
    "experiment": {"n_pulses": 1000000},
    "seed": 7,
}


# NEP 19 lets numpy's Generator streams (binomial, multinomial) change between
# releases, so the digest below holds only for the numpy it was taken with
_DIGEST_NUMPY = "2.4.6"


@pytest.mark.skipif(np.__version__ != _DIGEST_NUMPY,
                    reason=f"digest taken with numpy {_DIGEST_NUMPY}")
@pytest.mark.parametrize("workers", [1, 2])
def test_cli_simulate_readme_perpendicular_histogram_bytes_are_pinned(tmp_path, capsys,
                                                                      workers):
    # Skipping draws whose outcome is fixed and sharing one thread pool between
    # the polarizations must not move a byte of the perpendicular histogram.
    path = tmp_path / "run.json"
    path.write_text(json.dumps(README_RUN))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out), "--pulses", "20000",
                 "--workers", str(workers)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((out / "histogram_perp.csv").read_bytes()).hexdigest()
    assert digest == "b80a246c4b8074bc72d293c27c8835c85da1d09c3ad56f0fe65087662d94afbc"


def test_cli_match_pairs_demo(tmp_path, capsys):
    assert main(["match-pairs"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["pairs"]) == 4
    assert payload["pairs"][0]["width_pm"] >= payload["pairs"][-1]["width_pm"]


def lifetime_csv(tmp_path: Path) -> Path:
    t = np.linspace(0, 1600, 320)
    counts = np.random.default_rng(1).poisson(
        1e4 * np.exp(-t / 162.0) + 20.0)
    data = tmp_path / "trace.csv"
    with data.open("w") as fh:
        fh.write("time_ps,counts\n")
        for ti, ci in zip(t, counts):
            fh.write(f"{float(ti)!r},{int(ci)}\n")
    return data


def reflectivity_csv(tmp_path: Path) -> Path:
    center, q = 924.734, 2900.0
    fwhm = center / q
    wl = np.linspace(center - 6 * fwhm, center + 6 * fwhm, 300)
    refl = 0.97 - 0.6 * (fwhm / 2) ** 2 / ((wl - center) ** 2 + (fwhm / 2) ** 2)
    data = tmp_path / "refl.csv"
    with data.open("w") as fh:
        fh.write("wavelength_nm,reflectivity\n")
        for w, r in zip(wl, refl):
            fh.write(f"{float(w)!r},{float(r)!r}\n")
    return data


def delay_csvs(tmp_path: Path) -> tuple[Path, Path]:
    g, gs, tau = 1000 / 162, 0.17, 1400.0
    v0 = g / (g + gs)
    delays = [12.2, 60.0, 200.0, 525.0, 1500.0]
    for name, dw in (("filt.csv", 4.6), ("unfilt.csv", 4.7)):
        with (tmp_path / name).open("w") as fh:
            fh.write("delay_ns,visibility,sigma_v\n")
            for d in delays:
                v = v0 / (1 + 2 * (dw / (g + gs)) ** 2 * (1 - math.exp(-d / tau)))
                fh.write(f"{d},{v!r},0.005\n")
    return tmp_path / "filt.csv", tmp_path / "unfilt.csv"


def test_cli_fit_lifetime(tmp_path, capsys):
    data = lifetime_csv(tmp_path)
    assert main(["fit-lifetime", str(data), "--model", "mono_exp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"params", "sigmas", "residual_norm", "converged", "n_iter"}
    assert payload["converged"]
    assert payload["params"]["t1_ps"] == pytest.approx(162.0, rel=0.05)


def test_cli_fit_reflectivity(tmp_path, capsys):
    data = reflectivity_csv(tmp_path)
    assert main(["fit-reflectivity", str(data)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["q"] == pytest.approx(2900.0, rel=0.01)


def test_cli_fit_delay_with_outlier_flag(tmp_path, capsys):
    delay_csvs(tmp_path)
    code = main(["fit-delay", str(tmp_path / "filt.csv"), str(tmp_path / "unfilt.csv"),
                 "--t1-ps", "162", "--outlier", "unfiltered:12.2:0.1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["gamma_star"] == pytest.approx(0.17, rel=0.05)
    for bad in ("0", "-5", "nan"):
        assert main(["fit-delay", str(tmp_path / "filt.csv"), str(tmp_path / "unfilt.csv"),
                     "--t1-ps", bad]) == 2
        assert "lifetime must be > 0 ps" in capsys.readouterr().err
    for bad in ("nan", "inf"):
        assert main(["fit-delay", str(tmp_path / "filt.csv"), str(tmp_path / "unfilt.csv"),
                     "--t1-ps", "162", "--outlier", f"unfiltered:12.2:{bad}"]) == 2
        assert "finite" in capsys.readouterr().err


# a generated delay pair whose V(40 ns) > V(12.2 ns) in the filtered series
# puts the best gamma_star on its bound at 0
_BOUND_DELAY_SERIES = {
    "filtered": """12.2,0.9890762239440491,0.009855732260430482
40.0,0.9949247558234527,0.009707936498885426
120.0,0.939545408546258,0.009323394127441804
300.0,0.8662350887121839,0.008633242535344336
525.0,0.8075753244782937,0.008008131761666317
1200.0,0.7035188582868876,0.006960750561137445
3000.0,0.6160802350203625,0.006142096717028561
""",
    "unfiltered": """12.2,0.9828999874291677,0.009828135552914945
40.0,0.9747436483346733,0.009621696444608314
120.0,0.9077733073902569,0.009096190700496522
300.0,0.8092451851654315,0.008193107527955143
525.0,0.728768456318448,0.007416627995388143
1200.0,0.6166451224512137,0.0061962932365895555
3000.0,0.5338033643161814,0.005306497115519715
""",
}


def test_cli_fit_delay_with_gamma_star_on_its_bound_converges(tmp_path, capsys):
    # the fit holds gamma_star at 0 and converges along the bound, where a
    # full step clipped afterwards ran 500 iterations and exited 3
    paths = []
    for name, rows in _BOUND_DELAY_SERIES.items():
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_text("delay_ns,visibility,sigma_v\n" + rows)
    assert main(["fit-delay", *map(str, paths), "--t1-ps", "141.25780437760147"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["params"]["gamma_star"] == 0.0
    assert payload["n_iter"] <= 20


_FIT_KEYS = {"params", "sigmas", "residual_norm", "converged", "n_iter"}


# the subcommands that print a JSON payload, and the file each writes under --out
_JSON_COMMANDS = pytest.mark.parametrize("command, filename", [
    ("overlap", "overlap.json"),
    ("match-pairs", "pairs.json"),
    ("fit-lifetime", "fit_lifetime.json"),
    ("fit-reflectivity", "fit_reflectivity.json"),
    ("fit-delay", "fit_delay.json"),
])


def json_command_inputs(tmp_path: Path, command: str) -> list[str]:
    return {
        "overlap": lambda: ["--config", str(write_config(tmp_path))],
        "match-pairs": lambda: [],
        "fit-lifetime": lambda: [str(lifetime_csv(tmp_path)), "--model", "mono_exp"],
        "fit-reflectivity": lambda: [str(reflectivity_csv(tmp_path))],
        "fit-delay": lambda: [*map(str, delay_csvs(tmp_path)), "--t1-ps", "162"],
    }[command]()


@_JSON_COMMANDS
def test_cli_out_file_holds_the_stdout_payload(tmp_path, capsys, command, filename):
    # every JSON-printing subcommand writes its payload once: stdout and the
    # file under --out carry the same bytes
    out = tmp_path / "out"
    assert main([command, *json_command_inputs(tmp_path, command), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == [filename]
    assert (out / filename).read_text() == stdout
    payload = json.loads(stdout)
    if command.startswith("fit-"):
        assert set(payload) == _FIT_KEYS
        assert payload["converged"] is True


@_JSON_COMMANDS
def test_cli_out_that_is_a_file_exits_2_and_prints_no_payload(tmp_path, capsys, command,
                                                              filename):
    # the payload file is written before stdout, so a failed write leaves
    # stdout empty, as simulate and predict-delay do
    out = tmp_path / "out"
    out.write_text("kept")
    assert main([command, *json_command_inputs(tmp_path, command), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert out.read_text() == "kept"


def test_cli_unconverged_fit_prints_and_writes_its_payload_and_exits_3(tmp_path, capsys,
                                                                       monkeypatch):
    import dataclasses

    import remotehom.cli_io as cli

    fit = cli.fit_lifetime
    monkeypatch.setattr(cli, "fit_lifetime",
                        lambda *a: dataclasses.replace(fit(*a), converged=False))
    out = tmp_path / "out"
    assert main(["fit-lifetime", str(lifetime_csv(tmp_path)), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["converged"] is False
    assert (out / "fit_lifetime.json").read_text() == captured.out
    assert captured.err == "fit did not converge\n"


def test_cli_predict_delay(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "curve"
    assert main(["predict-delay", "--config", str(path), "--out", str(out),
                 "--source", "a"]) == 0
    capsys.readouterr()
    text = (out / "predicted_delay.csv").read_text()
    assert text.startswith("# config_hash=")
    lines = text.splitlines()
    assert lines[1] == "delay_ns,visibility,sigma_v"
    first_v = float(lines[2].split(",")[1])
    assert first_v == pytest.approx((1000 / 162) / (1000 / 162 + 0.17), rel=1e-9)


def test_cli_missing_config_exits_2(tmp_path, capsys):
    assert main(["overlap", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_invalid_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"pair": {"a": {"t1_ps": 162, "gamma_star": 0.17}, "b": {"t1_ps": 128}},
         "experiment": {"n_pulses": 1000}, "seed": 1}))
    assert main(["overlap", "--config", str(path)]) == 2
    assert "unit suffixes" in capsys.readouterr().err


def test_cli_unallocatable_histogram_exits_2_without_traceback(tmp_path):
    # a valid config whose delay histogram needs ~347 PiB, more than any
    # address space, so the allocation fails at once
    import subprocess
    import sys

    import remotehom

    path = tmp_path / "run.json"
    path.write_text(json.dumps({"pair": {"a": {"t1_ps": 162.0}, "b": {"t1_ps": 128.0}},
                                "experiment": {"n_pulses": 20000,
                                               "window_peaks": 100000000000000},
                                "seed": 7}))
    src = str(Path(remotehom.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "remotehom.cli_io", "simulate", "--config",
                           str(path), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_cli_sub_linewidth_filter_exits_3(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["overlap", "--config", str(path), "--filter-fwhm-pm", "0.5"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_narrow_wandering_behind_filter_exits_0(tmp_path, capsys):
    # wandering far narrower than the filter: the mean transmission is ~1
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "pair": {"a": {"t1_ps": 162, "delta_omega_ns_inv": 0.01, "wavelength_nm": 924.847},
                 "b": {"t1_ps": 128, "delta_omega_ns_inv": 0.01}},
        "experiment": {"n_pulses": 10000},
        "filter": {"center_nm": 924.847, "fwhm_pm": 20}, "seed": 1}))
    assert main(["overlap", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    payload = json.loads((tmp_path / "out" / "overlap.json").read_text())
    assert all(math.isfinite(v) for k, v in payload.items() if k != "config_hash")
    assert 0.9 < payload["m_averaged"] <= payload["s_classical"]


def test_cli_subnormal_wandering_behind_filter_override_exits_0(tmp_path, capsys):
    cfg = json.loads(write_config(tmp_path).read_text())
    for src in ("a", "b"):
        cfg["pair"][src]["delta_omega_ns_inv"] = 1e-310
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(cfg))
    assert main(["overlap", "--config", str(path), "--filter-fwhm-pm", "20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(math.isfinite(v) for k, v in payload.items() if k != "config_hash")


def test_cli_arithmetic_error_exits_3(tmp_path, capsys, monkeypatch):
    import remotehom.cli_io as cli

    def boom(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "mwo_voigt_averaged", boom)
    assert main(["overlap", "--config", str(write_config(tmp_path))]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "Traceback" not in err


def test_cli_fit_lifetime_nan_count_exits_2(tmp_path, capsys):
    data = tmp_path / "trace.csv"
    rows = [f"{10.0 * i!r},{1e4 * math.exp(-10.0 * i / 162.0)!r}" for i in range(160)]
    rows[40] = "400.0,nan"
    data.write_text("time_ps,counts\n" + "\n".join(rows) + "\n")
    assert main(["fit-lifetime", str(data), "--model", "mono_exp"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("mutate", [
    lambda cfg: cfg["pair"]["a"].update(t1_ps=None),
    lambda cfg: cfg["pair"]["a"].update(t1_ps=[1]),
    lambda cfg: cfg.update(experiment=5),
], ids=["null", "list", "section-as-number"])
def test_cli_wrongly_typed_config_value_exits_2(tmp_path, capsys, mutate):
    path = write_config(tmp_path)
    cfg = json.loads(path.read_text())
    mutate(cfg)
    path.write_text(json.dumps(cfg))
    assert main(["overlap", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


_SOURCE = {"label": "I_A", "emitter": {"t1_ps": 162.0},
           "cavity": {"x_c_nm": 924.734, "q": 2900.0}, "tuning_range_nm": [924.6, 925.0]}


_BAD_VALUES = [
    ("overlap", ("pair", "a", "t1_ps"), True),
    ("overlap", ("pair", "a", "t1_ps"), "162"),
    ("overlap", ("experiment", "n_pulses"), 20000.7),
    ("overlap", ("experiment", "window_peaks"), True),
    ("overlap", ("experiment", "window_peaks"), 2.5),
    ("overlap", ("seed",), 7.9),
    ("overlap", ("seed",), True),
    ("overlap", ("seed",), "7"),
    ("overlap", ("experiment", "n_pulses"), math.inf),
    ("overlap", ("experiment", "window_peaks"), math.inf),
    ("overlap", ("seed",), math.inf),
    ("overlap", ("pair", "s_classical"), True),
    ("overlap", ("pair", "b", "wavelength_nm"), -924.8),
    ("overlap", ("seed",), -3),
    ("match-pairs", ("sources",), [5]),
    ("match-pairs", ("sources",), 5),
    ("match-pairs", ("sources", 0, "tuning_range_nm"), []),
    ("match-pairs", ("sources", 0, "tuning_range_nm"), [924.6, 924.8, 925.0]),
    ("match-pairs", ("sources", 0, "emitter", "wavelength_nm"), -1.0),
    ("simulate", ("workers",), 0),
    ("simulate", ("workers",), -2),
    ("simulate", ("seed",), -1),
]


@pytest.mark.parametrize("command, keys, value", _BAD_VALUES,
                         ids=[f"{keys[-1]}={value!r}" for _, keys, value in _BAD_VALUES])
def test_cli_wrongly_typed_config_or_catalog_value_exits_2(tmp_path, capsys, command, keys,
                                                             value):
    doc = (json.loads(write_config(tmp_path).read_text()) if command != "match-pairs"
           else {"sources": [dict(_SOURCE)]})
    path = tmp_path / "doc.json"
    argv = [command, "--config", str(path)]
    if command == "simulate":  # the key names a command-line option
        argv += [f"--{keys[0]}", str(value), "--out", str(tmp_path / "o")]
    else:
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
    path.write_text(json.dumps(doc))  # inf is written as the JSON token Infinity
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(keys[-1]) in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, key", [
    ("experiment", "rep_period_ns"), ("experiment", "jitter_sigma_ps"),
    ("experiment", "blink_dwell_ns"), ("experiment", "bin_width_ps"),
    ("a", "theta_rad"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cli_non_finite_config_value_exits_2(tmp_path, capsys, section, key, bad):
    path = write_config(tmp_path)
    cfg = json.loads(path.read_text())
    (cfg["pair"]["a"] if section == "a" else cfg[section])[key] = bad
    path.write_text(json.dumps(cfg))  # written as the JSON tokens NaN / Infinity
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_fit_reflectivity_non_finite_cell_exits_2(tmp_path, capsys, bad):
    wl = np.linspace(924.4, 925.0, 60)
    refl = 0.97 - 0.6 * 0.1 ** 2 / ((wl - 924.7) ** 2 + 0.1 ** 2)
    rows = [f"{float(w)!r},{float(r)!r}" for w, r in zip(wl, refl)]
    rows[30] = f"{float(wl[30])!r},{bad}"
    data = tmp_path / "refl.csv"
    data.write_text("wavelength_nm,reflectivity\n" + "\n".join(rows) + "\n")
    assert main(["fit-reflectivity", str(data), "--out", str(tmp_path / "o")]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_LOADED = "import sys, {}; print(sorted(m for m in sys.modules if m.startswith({!r})))"
# runs main(argv) with its own output set aside, then prints which of the
# watched packages it loaded
_MAIN_LOADED = ("import contextlib, io, sys; from remotehom.cli_io import main\n"
                "with contextlib.redirect_stdout(io.StringIO()): assert main({!r}) == 0\n"
                "print([p for p in {!r} if p in sys.modules])")


def main_loads(argv_of, watch=("scipy",)):
    """Fresh-process arguments for `main(argv_of(tmp_path))` and its loaded `watch` list."""
    return lambda tmp_path: ["-c", _MAIN_LOADED.format(argv_of(tmp_path), watch)]


def json_command(command):
    return lambda tmp_path: [command, *json_command_inputs(tmp_path, command)]


@pytest.mark.parametrize("args, stdout", [
    # the CLI module leaves out scipy.signal and scipy.integrate
    (["-c", _LOADED.format("remotehom.cli_io", ("scipy.signal", "scipy.integrate"))], "[]"),
    # the package root loads no numpy, no scipy and none of its own modules
    (["-c", _LOADED.format("remotehom", ("numpy", "scipy", "remotehom."))], "[]"),
    # runpy finds remotehom.cli_io not yet imported, so it has nothing to warn about
    (["-W", "error::RuntimeWarning", "-m", "remotehom.cli_io", "match-pairs"], None),
    # scipy.special is imported on first use, by the Voigt profile and the filter model
    # only, so the fits, the catalog matcher and an unfiltered delay curve load no scipy
    (main_loads(json_command("fit-lifetime")), "[]"),
    (main_loads(json_command("fit-reflectivity")), "[]"),
    (main_loads(json_command("fit-delay")), "[]"),
    (main_loads(json_command("match-pairs")), "[]"),
    (main_loads(lambda tmp_path: ["predict-delay", "--config", str(write_config(tmp_path)),
                                  "--out", str(tmp_path / "curve")]), "[]"),
    (main_loads(json_command("overlap"),
                ("scipy.special", "scipy.signal", "scipy.integrate", "scipy.optimize")),
     "['scipy.special']"),
    # the parser is built on the first call to main, not at import
    (["-c", "import remotehom.cli_io as c; print(c.build_parser.cache_info().currsize)"], "0"),
], ids=["cli-module", "package-root", "run-as-module", "fit-lifetime", "fit-reflectivity",
        "fit-delay", "match-pairs", "predict-delay-unfiltered", "overlap", "no-parser-at-import"])
def test_fresh_process_imports(tmp_path, args, stdout):
    import subprocess
    import sys

    import remotehom

    src = str(Path(remotehom.__file__).resolve().parents[1])
    args = args(tmp_path) if callable(args) else args
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert (proc.returncode, proc.stderr) == (0, "")
    if stdout is not None:
        assert proc.stdout.strip() == stdout


def every_command(tmp_path: Path, out: Path) -> list[list[str]]:
    """All seven subcommands, writing under `out`, then four argparse exits."""
    cfg = str(write_config(tmp_path))
    return [
        ["overlap", "--config", cfg],
        ["simulate", "--config", cfg, "--out", str(out)],
        ["fit-lifetime", str(lifetime_csv(tmp_path)), "--out", str(out)],
        ["fit-reflectivity", str(reflectivity_csv(tmp_path)), "--out", str(out)],
        ["fit-delay", *map(str, delay_csvs(tmp_path)), "--t1-ps", "162",
         "--outlier", "unfiltered:12.2:0.1", "--out", str(out)],
        ["match-pairs", "--out", str(out)],
        ["predict-delay", "--config", cfg, "--source", "b", "--out", str(out)],
        ["frobnicate"],
        ["overlap"],
        ["simulate", "--config", cfg, "--workers", "x"],
        ["--help"],
    ]


def take_artifacts(out: Path) -> dict[str, bytes]:
    """The files under `out` by relative path, removing them."""
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    shutil.rmtree(out, ignore_errors=True)
    return files


def test_main_builds_one_parser_and_repeats_every_result(tmp_path, capsys):
    import subprocess
    import sys

    import remotehom
    import remotehom.cli_io as cli

    out = tmp_path / "out"
    argvs = every_command(tmp_path, out)

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, take_artifacts(out)

    cli.build_parser.cache_clear()
    first = [run(argv) for argv in argvs]
    second = [run(argv) for argv in argvs]
    assert cli.build_parser.cache_info().misses == 1
    assert [r[0] for r in first] == [0] * 7 + [2, 2, 2, 0]
    assert all(r[3] for r in first[1:7])  # every command but overlap wrote under --out
    assert second == first

    # overlap and fit-lifetime give the same in a fresh process
    src = str(Path(remotehom.__file__).resolve().parents[1])
    for k in (0, 2):
        proc = subprocess.run([sys.executable, "-m", "remotehom.cli_io", *argvs[k]],
                              capture_output=True, text=True, timeout=120,
                              env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
        assert (proc.returncode, proc.stdout, proc.stderr, take_artifacts(out)) == first[k]


def test_cli_unknown_subcommand_exits_nonzero(capsys):
    assert main(["frobnicate"]) != 0
    capsys.readouterr()
