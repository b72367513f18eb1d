"""Coincidence-histogram synthesis and the visibility estimator."""

import hashlib
import json
import math
import sys
import warnings

import numpy as np
import pytest

from remotehom.units_core import EnergySplitting, Frequency, Rate, Wavelength, read_csv_columns
from remotehom.wavepacket import Charge, EmitterParams, default_grid, emission_profile
from remotehom.overlap_analytics import FilterParams, SourcePair, apply_filter, mwo_voigt_averaged
from remotehom.spectral_noise import ou_path_uniform
from remotehom.hom_montecarlo import (
    CoincidenceHistogram,
    HomExperimentConfig,
    Polarization,
    VisibilityEstimate,
    _delay_bin_probs,
    analytic_prediction,
    estimate_visibility,
    simulate_histogram,
    simulate_histograms,
    write_histogram_csv,
    write_visibility_json,
)

from reference import dense_delay_bin_probs, ou_inflated_sigma

PAR, PERP = Polarization.PARALLEL, Polarization.PERPENDICULAR


def quiet_source(t1_ps: float = 162.0, **kw) -> EmitterParams:
    kw.setdefault("sideband_fraction", 0.0)
    return EmitterParams(t1_ps, **kw)


def quiet_pair(t1_a: float = 162.0, t1_b: float = 162.0, **pair_kw) -> SourcePair:
    return SourcePair(a=quiet_source(t1_a), b=quiet_source(t1_b), **pair_kw)


def quiet_config(n_pulses: int = 200_000, **kw) -> HomExperimentConfig:
    kw.setdefault("g2", 0.0)
    kw.setdefault("blink_on_prob", 1.0)
    return HomExperimentConfig(n_pulses=n_pulses, **kw)


def central_and_side_areas(h: CoincidenceHistogram, rep=12.2):
    central = np.abs(h.bin_centers) < rep / 2
    side = np.abs(np.abs(h.bin_centers) - rep) < rep / 2
    return float(h.counts[central].sum()), float(h.counts[side].sum())


# --- histogram synthesis ----------------------------------------------------

def test_perfect_interference_suppresses_central_peak():
    pair = quiet_pair(s_given=1.0)
    h = simulate_histograms(pair, quiet_config(), (PAR,), seed=101)[0]
    central, side = central_and_side_areas(h)
    assert central == 0.0
    assert side > 0.0


def test_perpendicular_central_equals_side_peaks():
    pair = quiet_pair(s_given=1.0)
    h = simulate_histograms(pair, quiet_config(), (PERP,), seed=102)[0]
    central, side = central_and_side_areas(h)
    per_side_peak = side / 2.0  # the area helper covers the two +-T peaks
    sigma = math.sqrt(central + side / 4.0)
    assert abs(central - per_side_peak) <= 3.0 * sigma


def test_visibility_one_for_perfect_pair():
    pair = quiet_pair(s_given=1.0)
    cfg = quiet_config()
    est = estimate_visibility(*simulate_histograms(pair, cfg, (PAR, PERP), seed=103),
                              cfg.rep_period_ns)
    assert est.v_tpi == 1.0
    assert est.a_par == 0.0


def test_visibility_approaches_classical_overlap_noise_off():
    # only temporal mismatch: the event acceptance is (1 - s)/2, so the
    # estimator should land on s
    pair = quiet_pair(162.0, 128.0, s_given=82944 / 84100)
    cfg = quiet_config(300_000)
    est = estimate_visibility(*simulate_histograms(pair, cfg, (PAR, PERP), seed=104),
                              cfg.rep_period_ns)
    assert abs(est.v_tpi - pair.s_classical) <= 3.0 * est.sigma


def test_detuned_pair_loses_visibility():
    resonant = quiet_pair(s_given=1.0)
    detuned = SourcePair(a=quiet_source(), b=quiet_source(),
                         mean_detuning=Frequency(12.0), s_given=1.0)
    cfg = quiet_config()
    v_res = estimate_visibility(*simulate_histograms(resonant, cfg, (PAR, PERP), seed=105),
                                cfg.rep_period_ns)
    v_det = estimate_visibility(*simulate_histograms(detuned, cfg, (PAR, PERP), seed=105),
                                cfg.rep_period_ns)
    assert v_det.v_tpi < v_res.v_tpi - 3.0 * (v_det.sigma + v_res.sigma)
    expected = analytic_prediction(detuned)
    assert abs(v_det.v_tpi - expected) <= 3.0 * v_det.sigma


def test_g2_contamination_lowers_visibility():
    pair = quiet_pair(s_given=1.0)
    cfg = quiet_config(g2=0.02)
    est = estimate_visibility(*simulate_histograms(pair, cfg, (PAR, PERP), seed=106),
                              cfg.rep_period_ns)
    # injected distinguishable extras contaminate both polarizations:
    # v = 1 - g2/(1 + g2) up to Poisson noise
    expected = 1.0 - cfg.g2 / (1.0 + cfg.g2)
    assert est.v_tpi < 1.0
    assert abs(est.v_tpi - expected) <= 3.0 * est.sigma


def test_sideband_fraction_degrades_visibility():
    # a one-sided sideband scales m by its source's factor alone
    cfg = quiet_config(400_000)
    for (p_a, p_b), expected in (((0.1, 0.2), 0.9 * 0.8), ((0.0, 0.3), 0.7)):
        pair = SourcePair(a=EmitterParams(162.0, sideband_fraction=p_a),
                          b=EmitterParams(162.0, sideband_fraction=p_b), s_given=1.0)
        est = estimate_visibility(*simulate_histograms(pair, cfg, (PAR, PERP), seed=107),
                                  cfg.rep_period_ns)
        assert abs(est.v_tpi - expected) <= 3.0 * est.sigma, (p_a, p_b)


def test_brightness_thins_the_coincidences():
    pair = SourcePair(a=quiet_source(brightness=0.6), b=quiet_source(), s_given=1.0)
    cfg = quiet_config(200_000)
    central, _ = central_and_side_areas(simulate_histograms(pair, cfg, (PERP,), seed=120)[0])
    # a pair exists in a fraction 0.6 of the pulses and half of them coincide
    expected = 0.5 * 0.6 * cfg.n_pulses
    assert abs(central - expected) <= 5.0 * math.sqrt(expected)


def test_mc_matches_analytic_prediction_with_wandering():
    # full-noise self-consistency at unit classical overlap; the OU
    # correlation time (50 ns) is short against the train so the
    # wandering average converges; its residual correlation inflates
    # the error bar by var(m) * 2 tau_c / T_total
    a = quiet_source(gamma_star=Rate(0.17), delta_omega=Rate(3.0), tau_c_ns=50.0)
    b = quiet_source(gamma_star=Rate(0.03), delta_omega=Rate(2.0), tau_c_ns=50.0)
    pair = SourcePair(a=a, b=b, mean_detuning=Frequency(2.0), s_given=1.0)
    cfg = quiet_config(500_000)
    est = estimate_visibility(*simulate_histograms(pair, cfg, (PAR, PERP), seed=108, workers=4),
                              cfg.rep_period_ns)
    expected = analytic_prediction(pair)
    assert abs(est.v_tpi - expected) <= 3.0 * ou_inflated_sigma(pair, cfg, est.sigma, seed=0)


def spy_ou_paths(monkeypatch) -> list:
    """Record (sigma, lambda, path) of every OU path the shards draw."""
    import remotehom.hom_montecarlo as hm

    calls = []

    def spy(sigma, lam, rng, n, out=None):
        path = ou_path_uniform(sigma, lam, rng, n, out=out)
        # a copy: the shard reuses its workspace row once the path is read;
        # shards may call from worker threads
        calls.append((sigma, lam, path.copy()))
        return path

    monkeypatch.setattr(hm, "ou_path_uniform", spy)
    return calls


def test_shared_tau_c_draws_one_detuning_path_of_summed_variance(monkeypatch):
    calls = spy_ou_paths(monkeypatch)
    a = quiet_source(delta_omega=Rate(3.0), tau_c_ns=50.0)
    b = quiet_source(delta_omega=Rate(2.0), tau_c_ns=50.0)
    cfg = quiet_config(1 << 18)
    simulate_histograms(SourcePair(a=a, b=b, s_given=1.0), cfg, (PAR,), seed=117)
    assert len(calls) == 4  # one path per shard of 65536 pulses
    paths = np.stack([path for _, _, path in calls])
    var, lam, n = 3.0**2 + 2.0**2, math.exp(-cfg.rep_period_ns / 50.0), paths.size
    # zero-mean Gaussian AR(1): the standard error of mean(x^2) is
    # var * sqrt(2 (1 + lam^2) / ((1 - lam^2) n)), of the lag-1 correlation
    # sqrt((1 - lam^2) / n)
    se_var = var * math.sqrt(2.0 * (1.0 + lam**2) / ((1.0 - lam**2) * n))
    assert abs(np.mean(paths**2) - var) <= 5.0 * se_var
    rho = np.sum(paths[:, 1:] * paths[:, :-1]) / np.sum(paths[:, :-1] ** 2)
    assert abs(rho - lam) <= 5.0 * math.sqrt((1.0 - lam**2) / n)


def test_unequal_tau_c_draws_two_paths_and_matches_analytic_prediction(monkeypatch):
    calls = spy_ou_paths(monkeypatch)
    a = quiet_source(gamma_star=Rate(0.17), delta_omega=Rate(3.0), tau_c_ns=50.0)
    b = quiet_source(gamma_star=Rate(0.03), delta_omega=Rate(2.0), tau_c_ns=20.0)
    pair = SourcePair(a=a, b=b, mean_detuning=Frequency(2.0), s_given=1.0)
    cfg = quiet_config(500_000)
    h_par, h_perp = simulate_histograms(pair, cfg, (PAR, PERP), seed=118, workers=2)
    T = cfg.rep_period_ns
    # both paths in each of the 8 parallel shards; a perpendicular shard draws none
    assert len(calls) == 2 * 8
    assert {(s, lam) for s, lam, _ in calls} == {(3.0, math.exp(-T / 50.0)),
                                                 (2.0, math.exp(-T / 20.0))}
    est = estimate_visibility(h_par, h_perp, cfg.rep_period_ns)
    sigma = ou_inflated_sigma(pair, cfg, est.sigma, seed=0)
    assert abs(est.v_tpi - analytic_prediction(pair)) <= 4.0 * sigma


@pytest.mark.parametrize("workers", [0, -1])
def test_fewer_than_one_worker_raises(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        simulate_histograms(quiet_pair(), quiet_config(1000), (PAR,), seed=1, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_one_pool_for_both_polarizations_matches_separate_runs(workers):
    a = EmitterParams(162.0, delta_omega=Rate(3.0), tau_c_ns=50.0)
    b = EmitterParams(128.0, delta_omega=Rate(2.0), tau_c_ns=50.0, brightness=0.8)
    pair = SourcePair(a=a, b=b, mean_detuning=Frequency(1.0), s_given=0.97)
    cfg = quiet_config(3 * 65536 + 1000, blink_on_prob=0.9, g2=0.01)
    hists = simulate_histograms(pair, cfg, (PAR, PERP), seed=119, workers=workers)
    assert [h.polarization for h in hists] == [PAR, PERP]
    for h in hists:
        ref = simulate_histogram(pair, cfg, h.polarization, seed=119)
        np.testing.assert_array_equal(h.bin_centers, ref.bin_centers)
        np.testing.assert_array_equal(h.counts, ref.counts)


def test_blinking_invariance_of_estimator():
    pair = quiet_pair(162.0, 128.0, s_given=82944 / 84100)
    cfg_blink = quiet_config(400_000, blink_on_prob=0.9, blink_dwell_ns=100.0)
    cfg_steady = quiet_config(400_000)
    est_b = estimate_visibility(*simulate_histograms(pair, cfg_blink, (PAR, PERP), seed=109),
                                cfg_blink.rep_period_ns)
    est_s = estimate_visibility(*simulate_histograms(pair, cfg_steady, (PAR, PERP), seed=109),
                                cfg_steady.rep_period_ns)
    sigma = math.hypot(est_b.sigma, est_s.sigma)
    assert abs(est_b.v_tpi - est_s.v_tpi) <= 3.0 * sigma


def test_blinking_bunches_both_polarizations_equally():
    pair = quiet_pair(s_given=1.0)
    cfg = quiet_config(400_000, blink_on_prob=0.8, blink_dwell_ns=200.0)
    h_par, h_perp = simulate_histograms(pair, cfg, (PAR, PERP), seed=110)
    _, side_par = central_and_side_areas(h_par)
    _, side_perp = central_and_side_areas(h_perp)
    sigma = math.sqrt(side_par + side_perp)
    assert abs(side_par - side_perp) <= 3.0 * sigma


@pytest.mark.parametrize("p_on", [1.0 - 2.0 ** -53, 1e-300])
def test_blink_chain_with_a_state_that_almost_never_switches(p_on):
    from remotehom.hom_montecarlo import _blink_chain

    chain = _blink_chain(np.random.default_rng(116), 5000, p_on, 12.2, 100.0)
    assert chain.shape == (5000,)
    assert chain.all() or not chain.any()


@pytest.mark.parametrize("p_on", [0.0, 1.0])
def test_blink_chain_that_never_switches_draws_nothing(p_on):
    from remotehom.hom_montecarlo import _blink_chain

    rng = np.random.default_rng(121)
    state = rng.bit_generator.state
    chain = _blink_chain(rng, 5000, p_on, 12.2, 100.0)
    assert chain.shape == (5000,) and chain.dtype == bool
    assert chain.all() if p_on else not chain.any()
    assert rng.bit_generator.state == state


def test_simulation_deterministic_and_worker_invariant():
    pair = quiet_pair(162.0, 128.0)
    cfg = quiet_config(200_000, blink_on_prob=0.9, blink_dwell_ns=100.0, g2=0.01)
    h1 = simulate_histograms(pair, cfg, (PAR,), seed=111, workers=1)[0]
    h2 = simulate_histograms(pair, cfg, (PAR,), seed=111, workers=4)[0]
    np.testing.assert_array_equal(h1.counts, h2.counts)
    h3 = simulate_histograms(pair, cfg, (PAR,), seed=112)[0]
    assert not np.array_equal(h1.counts, h3.counts)


@pytest.mark.parametrize("workers", [1, 2])
def test_delay_shape_computed_once_per_run(monkeypatch, workers):
    import remotehom.hom_montecarlo as hm

    calls = []

    def spy(pair, cfg):
        calls.append((pair, cfg))
        return _delay_bin_probs(pair, cfg)

    monkeypatch.setattr(hm, "_delay_bin_probs", spy)
    pair = quiet_pair(162.0, 128.0)
    cfg = quiet_config(70_000, g2=0.01)
    simulate_histograms(pair, cfg, (PAR, PERP), seed=115, workers=workers)
    assert calls == [(pair, cfg)]


@pytest.mark.parametrize("workers, n_pulses", [(1, 3 * 65536), (2, 65536)])
def test_no_thread_pool_at_one_worker_or_one_shard(monkeypatch, workers, n_pulses):
    import remotehom.hom_montecarlo as hm

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a thread pool was built")

        def submit(self, *args, **kwargs):
            raise AssertionError("a thread pool was used")

    monkeypatch.setattr(hm, "ThreadPoolExecutor", NoPool)
    monkeypatch.setitem(hm._POOLS, workers, object.__new__(NoPool))  # a kept pool, too
    simulate_histograms(quiet_pair(162.0, 128.0, s_given=0.97), quiet_config(n_pulses, g2=0.01),
                        (PAR, PERP), seed=116, workers=workers)


def test_a_failed_shard_raises_once_no_shard_runs(monkeypatch):
    # the pool outlives the run, so the run itself waits for its running shards
    import threading
    import time
    import remotehom.hom_montecarlo as hm

    lock = threading.Lock()
    state = {"started": 0, "running": 0}
    shard_fn = hm._simulate_shard

    def failing(pair, cfg, pol, seed, shard, *rest):
        with lock:
            state["started"] += 1
            state["running"] += 1
        try:
            if (pol, shard) == (PAR, 0):
                raise RuntimeError("shard failed")
            time.sleep(0.05)
            return shard_fn(pair, cfg, pol, seed, shard, *rest)
        finally:
            with lock:
                state["running"] -= 1

    monkeypatch.setattr(hm, "_simulate_shard", failing)
    pair, cfg = quiet_pair(162.0, 128.0), quiet_config(4 * 65536)
    with pytest.raises(RuntimeError, match="shard failed"):
        simulate_histograms(pair, cfg, (PAR, PERP), seed=120, workers=2)
    started = state["started"]
    assert state["running"] == 0
    time.sleep(0.2)
    assert state["started"] == started  # the shards not started were cancelled
    monkeypatch.setattr(hm, "_simulate_shard", shard_fn)  # the pool still serves
    hists = simulate_histograms(pair, cfg, (PAR, PERP), seed=120, workers=2)
    for h, ref in zip(hists, simulate_histograms(pair, cfg, (PAR, PERP), seed=120)):
        np.testing.assert_array_equal(h.counts, ref.counts)


def test_bin_centers_changed_in_place_are_written_as_they_are_and_reach_no_later_run(tmp_path):
    # the written text follows the array's values, and no later run shares the array
    pair, cfg = quiet_pair(), quiet_config(1000, window_peaks=2, bin_width_ps=20.0)
    h = simulate_histograms(pair, cfg, (PAR, PERP), seed=1)[0]
    write_histogram_csv(h, tmp_path / "before.csv", config_hash="abc")
    h.bin_centers.flags.writeable = True
    h.bin_centers[:] += 1.0
    write_histogram_csv(h, tmp_path / "after.csv", config_hash="abc")
    written = read_csv_columns(tmp_path / "after.csv", ("bin_center_ns",))[0]
    assert written.tobytes() == h.bin_centers.tobytes()
    half_span = 2.5 * cfg.rep_period_ns
    edges = np.linspace(-half_span, half_span, int(round(2.0 * half_span / 0.02)) + 1)
    for later in simulate_histograms(pair, cfg, (PAR, PERP), seed=1):
        assert later.bin_centers.tobytes() == (0.5 * (edges[:-1] + edges[1:])).tobytes()


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("charge", [Charge.X, Charge.CX])
def test_banded_delay_rows_are_the_dense_rows(charge, filtered):
    sources = [EmitterParams(t1, charge=charge, delta_omega=Rate(4.7),
                             fss=EnergySplitting(6.3 if charge is Charge.X else 0.0))
               for t1 in (162.0, 128.0)]
    filt = FilterParams(Wavelength(924.8), 20.0) if filtered else None
    if filtered:
        sources = [apply_filter(src, filt)[0] for src in sources]
    pair = SourcePair(*sources, s_given=1.0)
    for w in (1, 3, 7):
        for jitter in (0.0, 12.0, 100.0):
            for bin_ps in (5.0, 50.0, 200.0):
                cfg = quiet_config(1000, window_peaks=w, jitter_sigma_ps=jitter,
                                   bin_width_ps=bin_ps)
                edges, starts, probs = _delay_bin_probs(pair, cfg)
                dense_edges, dense = dense_delay_bin_probs(pair, cfg)
                assert edges.tobytes() == dense_edges.tobytes()
                width = probs.shape[1] - 1
                assert starts.shape == (2 * w + 1,) and width < edges.size
                for row, start, band in zip(dense, starts, probs):
                    assert band[:-1].tobytes() == row[start:start + width].tobytes()
                    outside = np.ones(row.size - 1, dtype=bool)
                    outside[start:start + width] = False
                    assert not row[:-1][outside].any()
                    # the overflow cells may differ in summation order only
                    assert band[-1] == pytest.approx(row[-1], abs=1e-15)


def test_banded_delay_rows_do_not_grow_with_the_window():
    pair = quiet_pair(162.0, 128.0, s_given=1.0)
    _, _, narrow = _delay_bin_probs(pair, quiet_config(1000, window_peaks=3))
    edges, starts, wide = _delay_bin_probs(pair, quiet_config(1000, window_peaks=1000))
    assert edges.size == 488_245 and starts.size == wide.shape[0] == 2001
    assert wide.shape[1] <= narrow.shape[1]


def test_simulated_counts_are_pinned_at_every_worker_count():
    # sha256 of both polarizations' counts (little-endian int64) as computed
    # by the dense delay table: the banded rows, and building the shape in the
    # pool or before the shards, leave every draw where it was
    pair = SourcePair(EmitterParams(162.0, gamma_star=Rate(0.17), delta_omega=Rate(4.7),
                                    brightness=0.8),
                      EmitterParams(128.0, gamma_star=Rate(0.03), delta_omega=Rate(2.12),
                                    brightness=0.8))
    cfg = HomExperimentConfig(n_pulses=150_000, g2=0.02, blink_on_prob=0.9,
                              blink_dwell_ns=100.0)
    assert counts_digests(pair, cfg) == \
        ["be9326abaea501af5aa7efb692417d985f59bb9c8418270e5922f36932c84d8c"] * 3


def counts_digests(pair: SourcePair, cfg: HomExperimentConfig) -> list[str]:
    """sha256 of both polarizations' counts at seed 2021, at 1, 2 and 4 workers, with
    every warning an error."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the pool's shards interleave more often
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return [hashlib.sha256(b"".join(np.asarray(h.counts, "<i8").tobytes() for h in
                                            simulate_histograms(pair, cfg, (PAR, PERP), 2021,
                                                                workers=workers))).hexdigest()
                    for workers in (1, 2, 4)]
    finally:
        sys.setswitchinterval(interval)


def pinned_pair(dw_a: float, tau_c_a: float, dw_b: float, tau_c_b: float,
                filtered: bool) -> SourcePair:
    filt = FilterParams(Wavelength(924.8), 20.0) if filtered else None
    sources = [EmitterParams(t1, gamma_star=Rate(gs), delta_omega=Rate(dw), tau_c_ns=tau_c,
                             brightness=0.8)
               for t1, gs, dw, tau_c in ((162.0, 0.17, dw_a, tau_c_a),
                                         (128.0, 0.03, dw_b, tau_c_b))]
    if filtered:
        sources = [apply_filter(src, filt)[0] for src in sources]
    return SourcePair(*sources, mean_detuning=Frequency(1.0))


# pinned_pair's arguments, the pulse count and the counts_digests value
_PINNED_BRANCHES = {
    # two OU paths, one per source
    "unequal_tau_c": ((4.7, 50.0, 2.12, 20.0, False), 140_000,
        "579729b5ef1872c66d05694abf9dcbaed3f81188d80603ffd053e021af8eb22a"),
    # a still source adds a scalar 0.0 before the other's path, or subtracts it after
    "a_still_unequal_tau_c": ((0.0, 50.0, 2.12, 20.0, False), 140_000,
        "d2c6f02f707b8b515e90fff278ccae260b66257b0493e505a0fad9ba28f14884"),
    "b_still_unequal_tau_c": ((4.7, 50.0, 0.0, 20.0, False), 140_000,
        "bdb13d588290b6fb65c355ba2a809fdbdb2f6912d84eaab068c83caa72c2e551"),
    # no wandering at all: one scalar m for every pulse
    "both_still": ((0.0, 50.0, 0.0, 50.0, False), 140_000,
        "e2d58e6f0157d50a1f018e29bbf1b50f17a90d3a214300804449c0f84a46683b"),
    "filtered": ((4.7, 50.0, 2.12, 50.0, True), 140_000,
        "7bbc39b6b850b95bdd6e811377a1e50d43f8249c8090b8b559750b8c58b944a8"),
    # the last shard holds one pulse: its OU path has no drive terms
    "one_pulse_shard": ((4.7, 50.0, 2.12, 50.0, False), 65_537,
        "7b4dbfda4be3da64d904b3c58b29e29faf2d84607b86376c24f4e813dcdeabf8"),
}


@pytest.mark.parametrize("branch", sorted(_PINNED_BRANCHES))
def test_every_parallel_branch_is_pinned_at_every_worker_count(branch):
    # each way a parallel shard can build its detuning, and a filtered pair
    pair_args, n_pulses, digest = _PINNED_BRANCHES[branch]
    cfg = HomExperimentConfig(n_pulses=n_pulses, g2=0.02, blink_on_prob=0.9,
                              blink_dwell_ns=100.0)
    assert counts_digests(pinned_pair(*pair_args), cfg) == [digest] * 3


def test_polarizations_draw_independent_streams():
    pair = quiet_pair()
    cfg = quiet_config(100_000)
    h_par, h_perp = simulate_histograms(pair, cfg, (PAR, PERP), seed=113)
    assert not np.array_equal(h_par.counts, h_perp.counts)


def test_histogram_window_and_binning():
    cfg = quiet_config(70_000, window_peaks=2, bin_width_ps=100.0)
    h = simulate_histograms(quiet_pair(), cfg, (PERP,), seed=114)[0]
    span = (cfg.window_peaks + 0.5) * cfg.rep_period_ns
    assert h.bin_centers[0] == pytest.approx(-span + 0.05, abs=1e-9)
    assert h.bin_centers[-1] == pytest.approx(span - 0.05, abs=1e-9)
    d = np.diff(h.bin_centers)
    np.testing.assert_allclose(d, 0.1, rtol=1e-9)


def event_level_histogram(pair, cfg, edges, rng):
    """Reference sampler: every coincidence gets two inverse-CDF arrival
    times and two jitter draws, then all go into one histogram. Models the
    perpendicular run of an always-on, g2-free pair: offset k holds
    Binomial(n_pulses - |k|, 1/2) coincidences."""
    profiles = [emission_profile(p, default_grid(p.t1_ps)) for p in (pair.a, pair.b)]
    (cdf_a, grid_a), (cdf_b, grid_b) = [(p.intensity_cdf(), p.t_grid) for p in profiles]
    jit = cfg.jitter_sigma_ps / 1000.0
    taus = []
    for k in range(-cfg.window_peaks, cfg.window_peaks + 1):
        n = rng.binomial(cfg.n_pulses - abs(k), 0.5)
        t_a = np.interp(rng.random(n), cdf_a, grid_a)
        t_b = np.interp(rng.random(n), cdf_b, grid_b)
        taus.append(t_b - t_a + jit * rng.standard_normal(n) - jit * rng.standard_normal(n)
                    + k * cfg.rep_period_ns)
    return np.histogram(np.concatenate(taus), bins=edges)[0]


@pytest.mark.parametrize("jitter_ps", [12.0, 100.0])
def test_count_level_synthesis_matches_event_level_sampler(jitter_ps):
    pair = quiet_pair(162.0, 128.0)
    cfg = quiet_config(1_000_000, jitter_sigma_ps=jitter_ps)
    h = simulate_histograms(pair, cfg, (PERP,), seed=115, workers=2)[0]
    width = h.bin_centers[1] - h.bin_centers[0]
    edges = np.append(h.bin_centers - width / 2, h.bin_centers[-1] + width / 2)
    ref = event_level_histogram(pair, cfg, edges, np.random.default_rng(116))
    a, b = h.counts.astype(float), ref.astype(float)
    assert b.sum() >= 1e6
    # two-sample chi-square over the populated bins
    sel = a + b > 20
    n_a, n_b = a.sum(), b.sum()
    chi2 = np.sum((math.sqrt(n_b / n_a) * a[sel] - math.sqrt(n_a / n_b) * b[sel]) ** 2
                  / (a[sel] + b[sel]))
    assert sel.sum() > 300
    assert 0.8 <= chi2 / sel.sum() <= 1.25
    # each peak holds Binomial(n_pulses - |k|, 1/2) coincidences
    for k in range(-cfg.window_peaks, cfg.window_peaks + 1):
        n = cfg.n_pulses - abs(k)
        peak = np.abs(h.bin_centers - k * cfg.rep_period_ns) < cfg.rep_period_ns / 2
        assert abs(h.counts[peak].sum() - n / 2) <= 5.0 * math.sqrt(n / 4), f"peak {k}"


# --- estimator on synthetic histograms --------------------------------------

def synthetic_histograms(a_par: int, a_perp: int):
    centers = np.linspace(-6.0, 6.0, 121)
    par = np.zeros(121, dtype=np.int64)
    perp = np.zeros(121, dtype=np.int64)
    par[60] = a_par
    perp[60] = a_perp
    return (CoincidenceHistogram(centers, par, PAR),
            CoincidenceHistogram(centers, perp, PERP))


def test_estimator_equal_areas_gives_zero():
    h_par, h_perp = synthetic_histograms(5000, 5000)
    assert estimate_visibility(h_par, h_perp, 12.2).v_tpi == 0.0


def test_estimator_zero_parallel_gives_one():
    h_par, h_perp = synthetic_histograms(0, 5000)
    est = estimate_visibility(h_par, h_perp, 12.2)
    assert est.v_tpi == 1.0
    assert est.sigma == pytest.approx(1.0 / 5000.0)


def test_estimator_rejects_empty_perpendicular():
    h_par, h_perp = synthetic_histograms(100, 0)
    with pytest.raises(ZeroDivisionError):
        estimate_visibility(h_par, h_perp, 12.2)


def test_estimator_rejects_mismatched_binning():
    h_par, _ = synthetic_histograms(100, 100)
    other = CoincidenceHistogram(np.linspace(-5.0, 5.0, 101),
                                 np.zeros(101, dtype=np.int64), PERP)
    with pytest.raises(ValueError):
        estimate_visibility(h_par, other, 12.2)


def test_estimator_poisson_sigma():
    h_par, h_perp = synthetic_histograms(400, 10_000)
    est = estimate_visibility(h_par, h_perp, 12.2)
    ratio = 400 / 10_000
    assert est.sigma == pytest.approx(ratio * math.sqrt(1 / 400 + 1 / 10_000), rel=1e-12)


# --- analytic prediction ----------------------------------------------------

def test_analytic_prediction_no_sideband_equals_voigt_average():
    pair = SourcePair(a=quiet_source(gamma_star=Rate(0.17), delta_omega=Rate(4.6)),
                      b=quiet_source(t1_ps=128.0, gamma_star=Rate(0.03),
                                     delta_omega=Rate(1.78)),
                      s_given=0.986)
    assert analytic_prediction(pair) == mwo_voigt_averaged(pair)


def test_analytic_prediction_sideband_degradation():
    a = EmitterParams(162.0, sideband_fraction=0.05)
    b = EmitterParams(128.0, sideband_fraction=0.05)
    pair = SourcePair(a=a, b=b, s_given=0.986)
    assert analytic_prediction(pair) == pytest.approx(
        0.95 * 0.95 * mwo_voigt_averaged(pair), rel=1e-12)


def test_analytic_prediction_unfiltered_configuration_bound():
    a = EmitterParams(162.0, gamma_star=Rate(0.17), delta_omega=Rate(4.7),
                      sideband_fraction=0.05)
    b = EmitterParams(128.0, gamma_star=Rate(0.03), delta_omega=Rate(2.12),
                      sideband_fraction=0.05)
    pair = SourcePair(a=a, b=b, s_given=0.986)
    assert analytic_prediction(pair) <= 0.65 + 0.05


# --- config validation and outputs ------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        HomExperimentConfig(n_pulses=0)
    with pytest.raises(ValueError):
        HomExperimentConfig(n_pulses=1000, g2=1.0)
    with pytest.raises(ValueError):
        HomExperimentConfig(n_pulses=1000, blink_on_prob=0.5, blink_dwell_ns=5.0)
    with pytest.raises(ValueError):
        HomExperimentConfig(n_pulses=1000, window_peaks=0)


@pytest.mark.parametrize("name", ["rep_period_ns", "jitter_sigma_ps", "blink_dwell_ns",
                                  "bin_width_ps"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_rejects_non_finite(name, bad):
    with pytest.raises(ValueError, match=name):
        HomExperimentConfig(n_pulses=1000, **{name: bad})


def test_write_histogram_csv(tmp_path):
    h = CoincidenceHistogram(np.array([-0.5, 0.5]), np.array([3, 7]), PAR)
    path = tmp_path / "hist.csv"
    write_histogram_csv(h, path, config_hash="abc123")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=abc123"
    assert lines[1] == "bin_center_ns,counts"
    assert lines[2] == "-0.5,3"
    assert lines[3] == "0.5,7"


def test_write_histogram_csv_follows_the_values_of_one_centers_array(tmp_path):
    # two histograms on one writable centers array, changed in place between writes
    centers = np.linspace(-2.0, 2.0, 9) / 3.0
    for k, pol in ((1, PAR), (5, PERP)):
        h = CoincidenceHistogram(centers, np.arange(9) * k, pol)
        path = tmp_path / f"{pol.value}.csv"
        write_histogram_csv(h, path, config_hash="abc123")
        expected = "# config_hash=abc123\nbin_center_ns,counts\n" + "".join(
            "%r,%r\n" % row for row in zip(centers.tolist(), h.counts.tolist()))
        assert path.read_text() == expected
        centers *= 2.0


def test_write_visibility_json(tmp_path):
    est = VisibilityEstimate(v_tpi=0.69, sigma=0.01, a_par=310.0, a_perp=1000.0)
    path = tmp_path / "vis.json"
    write_visibility_json(est, path, config_hash="abc123", seed=42)
    payload = json.loads(path.read_text())
    assert payload == {"v_tpi": 0.69, "sigma": 0.01, "a_par": 310.0,
                       "a_perp": 1000.0, "config_hash": "abc123", "seed": 42}
