"""Config ingestion, catalog matching, pipeline artifacts, CLI contract."""

import copy
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import remotehom
from remotehom.wavepacket import Charge, WavepacketProfile
from remotehom.overlap_analytics import mwo_voigt_averaged, remote_upper_bound
from remotehom.hom_montecarlo import HomExperimentConfig, analytic_prediction
from remotehom.estimation import RankDeficiencyError
from remotehom.cli_io import (
    CatalogEntry,
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


def defaults_run() -> dict:
    """write_config's pair with no wavelength, sideband fraction or s_classical given."""
    return {"pair": {"a": {"t1_ps": 162.0, "gamma_star_ns_inv": 0.17, "delta_omega_ns_inv": 4.7},
                     "b": {"t1_ps": 128.0, "gamma_star_ns_inv": 0.03, "delta_omega_ns_inv": 2.12}},
            "experiment": {"n_pulses": 20000}, "seed": 7}


_SRC = str(Path(remotehom.__file__).resolve().parents[1])


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a fresh process that imports the remotehom under test."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": _SRC, "PYTHONDONTWRITEBYTECODE": "1"})


def one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


# --- value types ------------------------------------------------------------

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


def test_catalog_rejects_inverted_range(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"sources": [dict(_SOURCE, tuning_range_nm=[925.0, 924.6])]}))
    with pytest.raises(ValueError, match=r"^I_A: need 0 < min < max of tuning_range_nm and "
                                         r"peak_brightness in \[0, 1\], got 925.0, 924.6, 1.0$"):
        load_catalog(path)


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
    # the filtered emitters carry no sideband, so the prediction is the bare average
    assert analytic_prediction(filtered.pair) == mwo_voigt_averaged(filtered.pair)


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


def test_load_run_config_experiment_defaults_are_homexperimentconfig_defaults(tmp_path):
    cfg, _ = load_run_config(write_config(tmp_path))
    assert cfg.experiment == HomExperimentConfig(n_pulses=20000)


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
    return CatalogEntry(label, base.emitter, (lo, hi))


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
    # the cavity and the peak brightness are checked and dropped: no command reads them
    assert entries["I_A"] == CatalogEntry("I_A", emitter_from_dict({"t1_ps": 162.0}),
                                          (924.6, 925.0))
    assert entries["II_A"].tuning_range_nm == (924.847, 924.88)
    assert len(h) == 64


# a catalog holding every key a source may carry; its config_hash and the bytes
# of its and the demo catalog's pairs.json, recorded before the unread keys
# were dropped from the catalog types
_FULL_CATALOG = {"sources": [
    {"label": "I_A", "emitter": {"t1_ps": 162.0, "theta_rad": 0.3},
     "cavity": {"x_c_nm": 924.734, "q": 2900.0, "detuning_pm": 113.0},
     "tuning_range_nm": [924.6, 925.0], "peak_brightness": 0.124},
    {"label": "II_A", "emitter": {"t1_ps": 128.0},
     "cavity": {"x_c_nm": 924.817, "q": 1700.0}, "tuning_range_nm": [924.847, 924.88]},
    {"label": "II_B", "emitter": {"t1_ps": 212.0},
     "cavity": {"x_c_nm": 924.96, "q": 1900.0, "detuning_pm": 40.0},
     "tuning_range_nm": [924.92, 925.2], "peak_brightness": 0.12}]}


def test_catalog_config_hash_and_pairs_json_bytes_are_pinned(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(_FULL_CATALOG))
    assert load_catalog(path)[1] == \
        "d0ed71ba9db3c9034881913c10c74e54e3ec5b2bcaf8b6fec5e16431531ad806"
    for argv, digest in (
            ([], "e0afde8ed9e356d069aac67ce0d40d931ad4b80aa287bde892b7169d9d51dc40"),
            (["--config", str(path)],
             "32dc4beefc869519c821a06a886e6e682f5032199a0d67167a303a95c1ce5a84")):
        out = tmp_path / f"out{len(argv)}"
        assert main(["match-pairs", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "pairs.json").read_bytes()).hexdigest() == digest
    capsys.readouterr()


@pytest.mark.parametrize("keys, value, error", [
    (("cavity", "q"), 0.0, "quality factor must be > 0, got 0.0"),
    (("cavity", "x_c_nm"), -1.0, "wavelength must be > 0 nm, got -1.0"),
    (("peak_brightness",), 7.0, "I_A: need 0 < min < max of tuning_range_nm and "
                                "peak_brightness in [0, 1], got 924.6, 925.0, 7.0"),
    (("emitter", "theta_rad"), math.nan,
     "sources[0].emitter.theta_rad: expected a finite number, got nan"),
    (("emitter", "theta_rad"), math.inf,
     "sources[0].emitter.theta_rad: expected a finite number, got inf"),
])
def test_cli_unread_catalog_keys_are_still_checked(tmp_path, capsys, keys, value, error):
    doc = copy.deepcopy(_FULL_CATALOG)
    parent = doc["sources"][0]
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))  # a non-finite number is written as NaN / Infinity
    assert main(["match-pairs", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "o").exists()


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
    # 200,000 pulses make four shards per polarization, so three workers share a real pool
    path = write_config(tmp_path)
    outs = []
    for workers, name in ((1, "a"), (3, "b")):
        out = tmp_path / name
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--pulses", "200000", "--workers", str(workers)]) == 0
        capsys.readouterr()
        outs.append(take_artifacts(out))
    assert sorted(outs[0]) == ["histogram_par.csv", "histogram_perp.csv", "overlap.json",
                               "visibility.json"]
    assert outs[1] == outs[0]


def test_cli_simulate_runs_share_their_shard_threads(tmp_path, capsys, monkeypatch):
    # two runs in one process shard on one pool's threads and write what a fresh
    # process writes
    import threading
    import remotehom.hom_montecarlo as hm

    threads = []  # the Thread objects, kept so that none is recycled
    shard = hm._simulate_shard

    def spy(*args):
        threads.append(threading.current_thread())
        return shard(*args)

    monkeypatch.setattr(hm, "_simulate_shard", spy)
    path = write_config(tmp_path)
    argv = ["simulate", "--config", str(path), "--pulses", "200000", "--workers", "2"]
    runs = []
    for name in ("a", "b"):
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        runs.append(take_artifacts(tmp_path / name))
    assert len(threads) == 2 * 2 * 4  # two runs of four shards per polarization
    assert len(set(threads)) <= 2 and threading.main_thread() not in threads
    proc = run_fresh("-m", "remotehom.cli_io", *argv, "--out", str(tmp_path / "fresh"))
    assert proc.returncode == 0
    assert runs[0] == runs[1] == take_artifacts(tmp_path / "fresh")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is POSIX only")
def test_cli_simulate_runs_in_a_forked_child_of_a_process_with_shard_threads(tmp_path):
    # the child holds copies of the parent's pools without their threads; the
    # alarm ends a child that waits on them (Python 3.12 and later warn of a fork
    # with live threads)
    parent, child = tmp_path / "parent", tmp_path / "child"
    script = ("import os, signal, sys, warnings\n"
              "from remotehom.cli_io import main\n"
              "argv = sys.argv[1:]\n"
              f"assert main([*argv, '--out', {str(parent)!r}]) == 0\n"
              "sys.stdout.flush()\n"
              "warnings.filterwarnings('ignore', category=DeprecationWarning)\n"
              "if os.fork() == 0:\n"
              "    signal.alarm(60)\n"
              f"    code = main([*argv, '--out', {str(child)!r}])\n"
              "    sys.stdout.flush()\n"
              "    os._exit(code)\n"
              "sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))\n")
    proc = run_fresh("-W", "error", "-c", script, "simulate", "--config",
                     str(write_config(tmp_path)), "--pulses", "200000", "--workers", "2")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert take_artifacts(child) == take_artifacts(parent)


def test_cli_simulate_formats_a_shared_binning_once(tmp_path, capsys, monkeypatch):
    # a second run on the same binning reuses the text of its bin centers
    import builtins
    import remotehom.units_core as uc

    path = write_config(tmp_path)
    argv = ["simulate", "--config", str(path), "--pulses", "20000"]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    formatted = []

    def spy(value):
        formatted.append(type(value))
        return builtins.repr(value)

    monkeypatch.setattr(uc, "repr", spy, raising=False)
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert int in formatted and float not in formatted  # the counts, not the centers
    assert take_artifacts(tmp_path / "b") == take_artifacts(tmp_path / "a")


def test_cli_seed_0_is_a_seed(tmp_path, capsys):
    # seed 0 from the config and from --seed: both resolve to one config
    path = write_config(tmp_path, seed=0)
    other = tmp_path / "seed7.json"
    other.write_text(path.read_text().replace('"seed": 0', '"seed": 7'))
    runs = []
    for config, extra in ((path, []), (other, ["--seed", "0"])):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out), *extra]) == 0
        capsys.readouterr()
        assert json.loads((out / "visibility.json").read_text())["seed"] == 0
        runs.append(take_artifacts(out))
    assert runs[0] == runs[1]


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
    assert digest == "b8ed1836bc39a7756f035cccc18c9010b6f0f57bb2462941f070f44b2da8db3d"


_ROOT = Path(__file__).resolve().parent.parent


def test_bench_artifact_digests_are_pinned():
    # every category of bench/bench_artifacts.py (the benchmark's simulate ops at 1,
    # 2 and 4 workers, its overlap/predict-delay and fit ops, 300 random delay
    # shapes) and its profile-build counts, as recorded in bench/ARTIFACT_DIGESTS.json
    # with the numpy and the machine type that it names
    import platform

    pinned = json.loads((_ROOT / "bench" / "ARTIFACT_DIGESTS.json").read_text())
    if (np.__version__, platform.machine()) != (pinned["numpy"], pinned["machine"]):
        pytest.skip(f"digests taken with numpy {pinned['numpy']} on {pinned['machine']}")
    proc = subprocess.run([sys.executable, str(_ROOT / "bench" / "bench_artifacts.py"),
                           "--src", _SRC], capture_output=True, text=True, check=True)
    (tree,) = json.loads(proc.stdout)["trees"].values()
    assert {name: c["sha256"] for name, c in tree["categories"].items()} == \
        pinned["categories"]
    assert tree["profile_builds"] == pinned["profile_builds"]


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


def test_cli_fit_delay_rejects_a_negative_delay(tmp_path, capsys):
    # the delay law is defined for d >= 0 only, so a row at -300 ns is an
    # input error (exit 2), not a series to fit
    filt, unfilt = delay_csvs(tmp_path)
    with filt.open("r+") as fh:
        rows = fh.read().splitlines()
        fh.seek(0)
        fh.write("\n".join([rows[0], "-300.0,0.9,0.005", *rows[1:]]) + "\n")
    assert main(["fit-delay", str(filt), str(unfilt), "--t1-ps", "162"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "delays must be non-negative and strictly increasing" in captured.err


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
    assert len(lines[2:]) == 201  # the data rows of the delay curve
    first_v = float(lines[2].split(",")[1])
    assert first_v == pytest.approx((1000 / 162) / (1000 / 162 + 0.17), rel=1e-9)


def write_computed_s_config(tmp_path: Path, **emitter_a) -> Path:
    """write_config's run without s_classical, so that the pair samples both profiles."""
    cfg = json.loads(write_config(tmp_path).read_text())
    del cfg["pair"]["s_classical"]
    cfg["pair"]["a"].update(emitter_a)
    path = tmp_path / "computed_s.json"
    path.write_text(json.dumps(cfg))
    return path


def count_profile_builds(monkeypatch) -> list:
    """The arguments of every WavepacketProfile.from_intensity call from now on."""
    calls, build = [], WavepacketProfile.from_intensity
    monkeypatch.setattr(WavepacketProfile, "from_intensity",
                        staticmethod(lambda *args: calls.append(args) or build(*args)))
    return calls


@pytest.mark.parametrize("fwhm", [[], ["--filter-fwhm-pm", "20"]])
def test_cli_predict_delay_builds_no_emission_profile(tmp_path, capsys, monkeypatch, fwhm):
    argv = ["predict-delay", "--config", str(write_computed_s_config(tmp_path)),
            "--source", "b", *fwhm]
    assert main(argv + ["--out", str(tmp_path / "built")]) == 0
    calls = count_profile_builds(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "lazy")]) == 0
    capsys.readouterr()
    assert calls == []
    name = "predicted_delay.csv"
    assert (tmp_path / "lazy" / name).read_bytes() == (tmp_path / "built" / name).read_bytes()


@pytest.mark.parametrize("command", ["overlap", "simulate"])
def test_cli_overlap_and_simulate_build_the_pair_once(tmp_path, capsys, monkeypatch, command):
    calls = count_profile_builds(monkeypatch)
    path = write_computed_s_config(tmp_path)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert len(calls) == 2  # one profile per source, for s and the delay shape alike


@pytest.mark.parametrize("command, builds", [("overlap", 0), ("simulate", 2)])
def test_cli_given_s_builds_profiles_only_for_the_delay_shape(tmp_path, capsys, monkeypatch,
                                                              command, builds):
    calls = count_profile_builds(monkeypatch)
    path = write_config(tmp_path)  # gives s_classical
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert len(calls) == builds


@pytest.mark.parametrize("command", ["overlap", "simulate", "predict-delay"])
def test_cli_s_classical_out_of_range_exits_2(tmp_path, capsys, command):
    cfg = json.loads(write_config(tmp_path).read_text())
    cfg["pair"]["s_classical"] = 1.5
    path = tmp_path / "s.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "s_classical must be in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("emitter_a, message", [
    # a valid X whose beat sin^2 underflows to zero everywhere on the pair's grid
    ({"charge": "X", "fss_uev": 1e-300}, "intensity must have positive area"),
    # lifetimes whose grid would need more than 2^20 samples to resolve the faster one
    ({"t1_ps": 128.0 * 3000}, "t1_ps values must lie within a factor 2560"),
], ids=["underflow", "ratio_cap"])
@pytest.mark.parametrize("command, code", [("overlap", 2), ("simulate", 2),
                                           ("predict-delay", 0)])
def test_cli_unbuildable_profile_fails_only_the_commands_that_read_s(tmp_path, capsys,
                                                                     command, code,
                                                                     emitter_a, message):
    # predict-delay reads no profile, and simulate fails before making --out
    path = write_computed_s_config(tmp_path, **emitter_a)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code:
        assert capsys.readouterr().err.startswith(f"error: {message}")


def test_cli_simulate_with_a_given_s_checks_the_grid_before_making_out(tmp_path, capsys):
    # with s given only the delay shape reads the profiles; simulate reads them
    # before it writes anything, so an over-cap lifetime ratio leaves no --out
    cfg = json.loads(write_config(tmp_path).read_text())
    cfg["pair"]["a"]["t1_ps"] = 384000.0
    path = tmp_path / "ratio_over.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert "t1_ps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t1_ps, jitter_sigma_ps", [
    (1e-304, 12.0),  # the lag count 8 sigma sqrt(2) / dt overflows to inf
    (162.0, 1e300),  # so it does from the jitter side
    (1e-3, 12.0),  # 2^27 FFT points, about 2 GB of buffers
])
def test_cli_simulate_caps_the_delay_shape_before_making_out(tmp_path, capsys,
                                                             t1_ps, jitter_sigma_ps):
    cfg = json.loads(write_config(tmp_path).read_text())
    cfg["pair"]["a"]["t1_ps"] = cfg["pair"]["b"]["t1_ps"] = t1_ps
    cfg["experiment"]["jitter_sigma_ps"] = jitter_sigma_ps
    path = tmp_path / "wide_shape.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: jitter_sigma_ps {jitter_sigma_ps!r} against t1_ps {t1_ps!r} "
                            f"and {t1_ps!r} needs a delay shape of more than 2^24 FFT points\n")
    assert not out.exists()


@pytest.mark.parametrize("s_classical", [None, 1, 0.986])
def test_cli_simulate_upper_bound_is_s(tmp_path, capsys, s_classical):
    # the remote bound min(s, sqrt(m_a m_b)) at m = 1; an integer s stays an integer
    path = write_computed_s_config(tmp_path)
    if s_classical is not None:
        cfg = json.loads(path.read_text())
        cfg["pair"]["s_classical"] = s_classical
        path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    report = json.loads((out / "overlap.json").read_text())
    assert summary["upper_bound"] == report["upper_bound"] == report["s_classical"]
    assert report["upper_bound"] == remote_upper_bound(report["s_classical"], 1.0, 1.0)
    if s_classical == 1:
        assert '"upper_bound": 1\n' in (out / "overlap.json").read_text()


@pytest.mark.parametrize("exc, code, line", [(MemoryError(), 2, "error: MemoryError"),
                                             (ArithmeticError(), 3,
                                              "numerical failure: ArithmeticError"),
                                             (RankDeficiencyError(), 3,
                                              "numerical failure: RankDeficiencyError")])
def test_cli_error_without_text_prints_its_type(tmp_path, capfd, monkeypatch, exc, code,
                                                line):
    # capfd: the out-of-memory line is written to file descriptor 2, not sys.stderr
    import remotehom.cli_io as cli

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "load_run_config", fail)
    assert main(["overlap", "--config", str(write_config(tmp_path))]) == code
    captured = capfd.readouterr()
    assert captured.out == "" and captured.err == line + "\n"


def test_cli_out_of_memory_line_takes_no_memory(tmp_path, capfd, monkeypatch):
    # out of memory, a write to sys.stderr may itself raise MemoryError
    import remotehom.cli_io as cli

    class Exhausted:
        def write(self, text):
            raise MemoryError

        flush = write

    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "load_run_config", fail)
    monkeypatch.setattr(sys, "stderr", Exhausted())
    assert main(["overlap", "--config", str(write_config(tmp_path))]) == 2
    monkeypatch.undo()
    assert capfd.readouterr() == ("", "error: MemoryError\n")


def test_cli_config_that_is_not_json_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text("{")
    assert main(["overlap", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("t1_ps", [*np.geomspace(5.6e-306, 1e-300, 40).tolist(), 7e-306, 1.2e-305])
def test_cli_lifetimes_near_the_floor_exit_0_or_2_and_keep_the_averaged_overlap(
        tmp_path, capsys, t1_ps):
    # both sources within a factor ~3 of the smallest t1_ps with a finite rate:
    # their sums of rates and profile peaks need a fourfold headroom
    cfg = {"pair": {"a": {"t1_ps": t1_ps}, "b": {"t1_ps": 1.27 * t1_ps}},
           "experiment": {"n_pulses": 20000}, "seed": 7}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["overlap", "--config", str(path)])
        out = capsys.readouterr().out
        assert main(["predict-delay", "--config", str(path), "--out", str(tmp_path)]) == code
    assert code == (0 if math.isfinite(4000.0 / t1_ps) else 2)
    if code == 0:
        summary = json.loads(out)
        assert summary["m_averaged"] == pytest.approx(summary["s_classical"] ** 2, rel=1e-12)


def test_cli_huge_wandering_simulates_to_zero_overlap_and_an_overflowing_one_exits_2(
        tmp_path, capsys):
    # the suite turns RuntimeWarnings into errors: neither run may warn
    cfg = json.loads(write_config(tmp_path).read_text())
    cfg["pair"]["a"]["delta_omega_ns_inv"] = 1e200  # 4 delta^2 overflows: m = 0
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "wide")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["v_tpi"]) < 5.0 * summary["sigma"]
    cfg["pair"]["a"]["delta_omega_ns_inv"] = 1e308  # the detuning path itself overflows
    path.write_text(json.dumps(cfg))
    out = tmp_path / "wider"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert "delta_omega must give a finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tau_c_ns, code", [(1e307, 0), (1e308, 2)])
def test_cli_predict_delay_rejects_an_overflowing_delay_span(tmp_path, capsys, tau_c_ns, code):
    cfg = json.loads(write_config(tmp_path).read_text())
    cfg["pair"]["a"]["tau_c_ns"] = tau_c_ns
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["predict-delay", "--config", str(path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else
                   f"error: tau_c_ns must give a finite 3 tau_c delay span, got {tau_c_ns}\n")


def assert_finite_output(stdout: str, out: Path) -> None:
    """Every number a command printed or wrote is finite."""
    def non_finite(name):
        raise AssertionError(f"non-finite JSON value {name}")

    for text in [stdout, *(p.read_text() for p in out.glob("*.json"))]:
        if text.startswith("{"):
            json.loads(text, parse_constant=non_finite)
    for path in out.glob("*.csv"):
        rows = [ln.split(",") for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert np.isfinite(np.array(rows[1:], dtype=float)).all(), path.name


# defaults_run with one key set to an extreme value, as (source, key, value, code):
# a key of pair.a, or of the pair itself where source is None, and the code of every
# command
OVERFLOW_PROBES = [
    # a square that overflows: the overlaps and the delay law take their limit
    ("a", "gamma_star_ns_inv", 1e200, 0), (None, "mean_detuning_ns_inv", 1e200, 0),
    ("a", "delta_omega_ns_inv", 1e200, 0), ("a", "gamma_star_ns_inv", 1e308, 0),
    (None, "mean_detuning_ns_inv", 1e308, 0), ("a", "delta_omega_ns_inv", 1e307, 0),
    # a rate 1000/t1_ps or a detuning span that overflows: a range check
    ("a", "t1_ps", 1e-320, 2), ("a", "t1_ps", 1e308, 2), ("a", "delta_omega_ns_inv", 1e308, 2),
]


@pytest.mark.parametrize("source, key, value, code", OVERFLOW_PROBES,
                         ids=[f"{key}={value:.3g}" for _, key, value, _ in OVERFLOW_PROBES])
def test_cli_overflowing_rate_or_detuning_gives_one_code_on_every_command(tmp_path, capsys,
                                                                         source, key, value,
                                                                         code):
    """Every command treats an extreme key alike and without a warning: exit 0 with
    finite output where the overlaps take their limit, or 2 with one error line from a
    range check, never 3."""
    cfg = defaults_run()
    (cfg["pair"][source] if source else cfg["pair"])[key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    for command in ("overlap", "simulate", "predict-delay"):
        out = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(path), "--out", str(out)]) == code, command
        captured = capsys.readouterr()
        if code == 0:
            assert captured.err == ""
            assert_finite_output(captured.out, out)
        else:
            assert one_error_line(captured.err)
            assert not out.exists()


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


@pytest.mark.parametrize("experiment", [{"window_peaks": 100000000000000},
                                        {"jitter_sigma_ps": 1e15}])
def test_cli_unallocatable_histogram_exits_2_without_traceback(tmp_path, experiment):
    # valid configs whose per-peak counts (~1.4 PiB) or jitter-padded delay
    # shape (~512 PiB) need more than any address space, so the allocation
    # fails at once
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"pair": {"a": {"t1_ps": 162.0}, "b": {"t1_ps": 128.0}},
                                "experiment": {"n_pulses": 20000, **experiment},
                                "seed": 7}))
    proc = run_fresh("-m", "remotehom.cli_io", "simulate", "--config", str(path),
                     "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# runs main(sys.argv[1:]) with its address space capped at 3 GB before numpy is imported
_MAIN_IN_3GB = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3072000000,) * 2); "
                "from remotehom.cli_io import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
@pytest.mark.parametrize("key, value", [
    # 2001 peaks over 488,244 bins: each peak keeps only its band of delay bins,
    # so memory grows linearly in window_peaks
    ("window_peaks", 1000),
    # lifetimes a factor 2560 apart take the largest profile grid, 2^20 samples
    ("t1_ps", 327680.0),
])
def test_cli_largest_runs_fit_in_3_gb(tmp_path, key, value):
    cfg = defaults_run()
    (cfg["experiment"] if key == "window_peaks" else cfg["pair"]["a"])[key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    proc = run_fresh("-W", "error", "-c", _MAIN_IN_3GB, "simulate", "--config", str(path),
                     "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    if key == "window_peaks":
        for name in ("histogram_par.csv", "histogram_perp.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[1] == "bin_center_ns,counts" and len(lines[2:]) == 488_244


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
@pytest.mark.parametrize("key, value", [("window_peaks", 1000), ("t1_ps", 327680.0)])
def test_cli_out_of_memory_exits_2_with_one_line(tmp_path, key, value):
    # the largest runs above, in 400 MB: the handler must not need memory of its own
    cfg = defaults_run()
    (cfg["experiment"] if key == "window_peaks" else cfg["pair"]["a"])[key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    proc = run_fresh("-W", "error", "-c", _MAIN_IN_3GB.replace("3072000000", "400000000"),
                     "simulate", "--config", str(path), "--out", str(tmp_path / "out"))
    assert (proc.returncode, proc.stderr) == (2, "error: MemoryError\n")


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


def test_cli_empty_perpendicular_peak_exits_3(tmp_path, capsys):
    # a source that never emits leaves both central peaks empty
    cfg = json.loads(write_config(tmp_path).read_text())
    cfg["pair"]["a"]["brightness"] = 0.0
    path = tmp_path / "dark.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: empty perpendicular central peak; cannot normalize\n"
    assert not (out / "visibility.json").exists()


def test_cli_sources_never_on_exit_3(tmp_path, capsys):
    # blink_on_prob 0: both sources stay dark, so both central peaks are empty
    path = write_config(tmp_path, experiment={"n_pulses": 20000, "blink_on_prob": 0.0})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: empty perpendicular central peak; cannot normalize\n"
    assert not (out / "visibility.json").exists()


@pytest.mark.parametrize("command", ["overlap", "simulate"])
@pytest.mark.parametrize("where", ["config", "override"])
def test_cli_zero_filter_fwhm_exits_2(tmp_path, capsys, command, where):
    if where == "config":
        path = write_config(tmp_path, filter={"center_nm": 924.847, "fwhm_pm": 0.0})
        extra = []
    else:
        path, extra = write_config(tmp_path), ["--filter-fwhm-pm", "0"]
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: filter FWHM must be > 0 pm, got 0.0\n"
    assert not out.exists()


_MONO_ROWS = [f"{10.0 * i!r},{1e4 * math.exp(-10.0 * i / 162.0)!r}" for i in range(160)]


def fss_trace_rows() -> list[str]:
    """Data rows of a seeded beating trace: 6.3 ueV, T1 162 ps, background 10."""
    rng = np.random.default_rng(7)
    t = np.arange(0.0, 2000.0, 4.0)
    dt = np.clip(t - 40.0, 0.0, None)
    mean = 20000.0 * np.sin(6.3 * dt / (2 * 658.2119)) ** 2 * np.exp(-dt / 162.0) + 10.0
    return [f"{ti:.17g},{ci}" for ti, ci in zip(t, rng.poisson(mean))]


def csv_text(lines: list[str], newline: str = "\n") -> str:
    return newline.join(lines) + newline


_MONO_EXP = ["--model", "mono_exp"]
# per case: the file's text, the fit-lifetime options, the exit code and a check of stderr
_LIFETIME_CSVS = {
    "nan_count": (csv_text(["time_ps,counts", *_MONO_ROWS[:40], "400.0,nan", *_MONO_ROWS[41:]]),
                  _MONO_EXP, 2, lambda err: "finite" in err),
    # float() reads 1000; numpy's parser, and so the CLI, does not
    "underscore_literal": (csv_text(["time_ps,counts", *_MONO_ROWS[:40], "400.0,1_000",
                                     *_MONO_ROWS[41:]]), _MONO_EXP, 2, one_error_line),
    "reversed_times": (csv_text(["time_ps,counts", *reversed(_MONO_ROWS)]), _MONO_EXP, 2,
                       lambda err: err == "error: times must be strictly increasing\n"),
    "header_only": (csv_text(["time_ps,counts"]), [], 2,
                    lambda err: one_error_line(err) and "Warning" not in err),
    # CRLF line endings, a comment and a quoted header
    "crlf_fss": (csv_text(["# exported", '"time_ps","counts"', *fss_trace_rows()], "\r\n"),
                 ["--model", "fss_beating", "--background", "10"], 0, lambda err: err == ""),
}


@pytest.mark.parametrize("text, options, code, err_ok", _LIFETIME_CSVS.values(),
                         ids=list(_LIFETIME_CSVS))
def test_cli_fit_lifetime_csv_exit_code(tmp_path, capsys, text, options, code, err_ok):
    data = tmp_path / "trace.csv"
    data.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit-lifetime", str(data), *options]) == code
    captured = capsys.readouterr()
    assert err_ok(captured.err), captured.err
    if code == 0:  # the beat converges from its seed in few steps
        payload = json.loads(captured.out)
        assert payload["converged"] and payload["n_iter"] <= 10


def test_cli_fit_lifetime_slow_beat_converges(tmp_path, capsys):
    # fss 2.10 ueV, T1 197 ps: the beat period (~2 ns) is about the trace's
    # span, so the decay shows no beat minimum to seed the splitting from
    rng = np.random.default_rng([15, 388])
    amp, t1, fss, t0, bg = (float(rng.uniform(lo, hi)) for lo, hi in
                            ((8000.0, 40000.0), (120.0, 250.0), (2.0, 15.0), (20.0, 60.0), (2.0, 20.0)))
    t = np.arange(0.0, 2000.0, 4.0)
    dt = np.clip(t - t0, 0.0, None)
    counts = rng.poisson(amp * np.sin(fss * dt / (2.0 * 658.2119)) ** 2 * np.exp(-dt / t1) + bg)
    data = tmp_path / "trace.csv"
    data.write_text("time_ps,counts\n" + "".join(f"{float(ti)!r},{ci}\n" for ti, ci in zip(t, counts)))
    assert main(["fit-lifetime", str(data), "--model", "fss_beating",
                 "--background", repr(bg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"]
    assert payload["params"]["fss_uev"] == pytest.approx(fss, abs=3.0 * payload["sigmas"]["fss_uev"])


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
    ("match-pairs", ("sources", 0, "tuning_range_nm"), [-5.0, -1.0]),
    ("match-pairs", ("sources", 0, "tuning_range_nm"), [0.0, 925.0]),
    ("match-pairs", ("sources", 0, "peak_brightness"), -3.0),
    ("match-pairs", ("sources", 0, "peak_brightness"), 7.0),
    ("simulate", ("workers",), 0),
    ("simulate", ("workers",), -2),
    ("simulate", ("seed",), -1),
]


@pytest.mark.parametrize("command, keys, value", _BAD_VALUES,
                         ids=[f"{keys[-1]}={value!r}" for _, keys, value in _BAD_VALUES])
def test_cli_wrongly_typed_config_or_catalog_value_exits_2(tmp_path, capsys, command, keys,
                                                             value):
    doc = (json.loads(write_config(tmp_path).read_text()) if command != "match-pairs"
           else {"sources": [copy.deepcopy(_SOURCE)]})
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
    # the CLI module loads no scipy
    (["-c", _LOADED.format("remotehom.cli_io", "scipy")], "[]"),
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
    proc = run_fresh(*(args(tmp_path) if callable(args) else args))
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
    for k in (0, 2):
        proc = run_fresh("-m", "remotehom.cli_io", *argvs[k])
        assert (proc.returncode, proc.stdout, proc.stderr, take_artifacts(out)) == first[k]


def test_cli_unknown_subcommand_exits_nonzero(capsys):
    assert main(["frobnicate"]) != 0
    capsys.readouterr()
