"""Command-line interface, configuration ingestion, result serialization,
and the source-pair tuning-range matcher.

Config files are JSON with explicit unit suffixes in every key carrying a
physical quantity (`t1_ps`, `delta_omega_ns_inv`, `fwhm_pm`); unknown
keys are rejected so a mistyped or wrongly-united key fails loudly
instead of silently falling back to a default. Every output file carries
the sha256 hash of the resolved configuration that produced it, and all
commands are deterministic given (config, seed).

Exit codes: 0 success, 2 invalid configuration or usage (including a run
too large to allocate), 3 numerical failure (fit non-convergence, filter
regime violation, degenerate data).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .units_core import (
    EnergySplitting,
    Frequency,
    Rate,
    Wavelength,
    json_text,
    lifetime_to_rate,
)
from .wavepacket import Charge, EmitterParams, read_lifetime_csv
from .overlap_analytics import (
    FilterParams,
    FilterRegimeError,
    SourcePair,
    apply_filter,
    mwo_no_dephasing,
    mwo_voigt_averaged,
    mwo_with_dephasing,
)
from .spectral_noise import DelayVisibilitySeries, individual_indistinguishability
from .hom_montecarlo import (
    HomExperimentConfig,
    Polarization,
    analytic_prediction,
    estimate_visibility,
    simulate_histograms,
    write_histogram_csv,
    write_visibility_json,
)
from .estimation import (
    FitResult,
    LifetimeModel,
    LifetimeTrace,
    fit_delay_visibility,
    fit_lifetime,
    fit_reflectivity,
    read_reflectivity_csv,
)

__all__ = [
    "CatalogEntry",
    "SourceCatalog",
    "RunConfig",
    "config_hash",
    "load_run_config",
    "load_catalog",
    "demo_catalog",
    "match_pairs",
    "overlap_report",
    "run_pipeline",
    "main",
]


# ---------------------------------------------------------------------------
# Domain types

@dataclass(frozen=True)
class CatalogEntry:
    """A catalog source as `match_pairs` reads it; `load_catalog` checks it."""

    label: str
    tuning_range_nm: tuple[float, float]

    @property
    def sample(self) -> str:
        # sources live on physical samples named by the label prefix: I_A
        # and I_B share sample I, II_A/II_B/II_C sample II
        return self.label.split("_")[0]


@dataclass(frozen=True)
class SourceCatalog:
    sources: tuple[CatalogEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        labels = [s.label for s in self.sources]
        if len(set(labels)) != len(labels):
            raise ValueError("catalog labels must be unique")


@dataclass(frozen=True)
class RunConfig:
    """A resolved run: the source pair, the experiment, and where its artifacts go."""

    pair: SourcePair
    experiment: HomExperimentConfig
    seed: int
    outputs: Path
    workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


# ---------------------------------------------------------------------------
# Config ingestion

def config_hash(resolved: dict) -> str:
    """sha256 over the canonical JSON form of a resolved configuration.

    The `outputs` directory is excluded: it is plumbing, and the same
    physics run must hash identically wherever its artifacts land.
    """
    hashable = {k: v for k, v in resolved.items() if k != "outputs"}
    canonical = json.dumps(hashable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_EXPECTED = {float: "a finite number", int: "a finite integer", str: "a string",
             dict: "a JSON object", list: "a JSON array"}


def _decode(value, kind: type, where: str):
    """`value` checked as a `kind` (see `_EXPECTED`); numbers are never
    booleans, and an integral float such as 1e6 becomes an int for int keys."""
    if kind in (int, float):
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max and (kind is float or value == int(value)))
        value = int(value) if ok and kind is int else value
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ValueError(f"{where}: expected {_EXPECTED[kind]}, got {value!r}")
    return value


def _take(d: dict, context: str, spec: dict) -> dict:
    """Decode a config section: every key of `spec`, none other.

    `spec` maps each key to its type when the key is required, else to its
    default, whose type the value must have; a None default marks an
    optional number. Raises ValueError naming the key on any violation.
    """
    _decode(d, dict, context)
    unknown = set(d) - set(spec)
    if unknown:
        raise ValueError(f"{context}: unknown keys {sorted(unknown)} "
                         "(check unit suffixes)")
    out = {}
    for key, rule in spec.items():
        if key in d:
            kind = rule if isinstance(rule, type) else float if rule is None else type(rule)
            out[key] = _decode(d[key], kind, f"{context}.{key}")
        elif isinstance(rule, type):
            raise ValueError(f"{context}: missing required key '{key}'")
        else:
            out[key] = rule
    return out


_EMITTER = {"t1_ps": float, "gamma_star_ns_inv": 0.0, "delta_omega_ns_inv": 0.0,
            "tau_c_ns": 1400.0, "wavelength_nm": 0.0, "fss_uev": 0.0, "theta_rad": 0.0,
            "charge": "CX", "brightness": 1.0, "sideband_fraction": 0.05}

# HomExperimentConfig's fields: the required n_pulses an int, the others their defaults
_EXPERIMENT = {f.name: int if f.default is MISSING else f.default
               for f in fields(HomExperimentConfig)}


def emitter_from_dict(d: dict, context: str = "emitter") -> EmitterParams:
    vals = _take(d, context, _EMITTER)
    if vals["wavelength_nm"] < 0:  # 0 means not given; _take checked it is finite
        raise ValueError(f"{context}.wavelength_nm must be > 0, got {vals['wavelength_nm']}")
    try:
        charge = Charge(vals["charge"])
    except ValueError:
        raise ValueError(f"{context}: charge must be 'X' or 'CX', got {vals['charge']!r}")
    return EmitterParams(
        t1_ps=vals["t1_ps"],
        gamma_star=Rate(vals["gamma_star_ns_inv"]),
        delta_omega=Rate(vals["delta_omega_ns_inv"]),
        tau_c_ns=vals["tau_c_ns"],
        fss=EnergySplitting(vals["fss_uev"]),
        charge=charge,
        brightness=vals["brightness"],
        sideband_fraction=vals["sideband_fraction"],
    )


def load_run_config(path: str | Path, *, seed_override: Optional[int] = None,
                    pulses_override: Optional[int] = None,
                    filter_fwhm_override: Optional[float] = None,
                    out_override: Optional[str] = None,
                    workers: int = 1) -> tuple[RunConfig, str]:
    """Parse a run config file and apply CLI overrides.

    Returns the config plus the hash of the *resolved* dict, so the same
    effective parameters hash identically however they were supplied.
    """
    with Path(path).open() as fh:
        raw = json.load(fh)
    top = _take(raw, "config", {"pair": dict, "experiment": dict, "seed": int,
                                "filter": {}, "outputs": "."})
    pair_d = _take(top["pair"], "pair", {"a": dict, "b": dict,
                                         "mean_detuning_ns_inv": 0.0, "s_classical": None})
    a = emitter_from_dict(pair_d["a"], "pair.a")
    b = emitter_from_dict(pair_d["b"], "pair.b")

    resolved = dict(raw)  # what the hash covers: the file plus the overrides
    if seed_override is not None:
        resolved["seed"] = top["seed"] = seed_override
    if pulses_override is not None:
        resolved["experiment"] = dict(top["experiment"], n_pulses=pulses_override)
    if out_override is not None:
        resolved["outputs"] = top["outputs"] = out_override
    if filter_fwhm_override is not None:
        wl = pair_d["a"].get("wavelength_nm")  # checked by emitter_from_dict
        if not (top["filter"] or wl):
            raise ValueError("--filter-fwhm-pm without a filter section "
                             "requires pair.a.wavelength_nm for the center")
        resolved["filter"] = dict(top["filter"] or {"center_nm": wl},
                                  fwhm_pm=filter_fwhm_override)

    experiment = HomExperimentConfig(**_take(resolved["experiment"], "experiment", _EXPERIMENT))
    if resolved.get("filter"):
        f = _take(resolved["filter"], "filter", {"center_nm": float, "fwhm_pm": float})
        filt = FilterParams(center=Wavelength(f["center_nm"]), fwhm_pm=f["fwhm_pm"])
        a, _ = apply_filter(a, filt)
        b, _ = apply_filter(b, filt)
    pair = SourcePair(a=a, b=b, mean_detuning=Frequency(pair_d["mean_detuning_ns_inv"]),
                      s_given=pair_d["s_classical"])
    cfg = RunConfig(pair=pair, experiment=experiment, seed=top["seed"],
                    outputs=Path(top["outputs"]), workers=workers)
    return cfg, config_hash(resolved)


# ---------------------------------------------------------------------------
# Catalog + pair matching

def load_catalog(path: str | Path) -> tuple[SourceCatalog, str]:
    with Path(path).open() as fh:
        raw = json.load(fh)
    sources = _take(raw, "catalog", {"sources": list})["sources"]
    entries = []
    for i, src in enumerate(sources):
        ctx = f"sources[{i}]"
        vals = _take(src, ctx, {"label": str, "emitter": dict, "cavity": dict,
                                "tuning_range_nm": list, "peak_brightness": 1.0})
        cav = _take(vals["cavity"], f"{ctx}.cavity",
                    {"x_c_nm": float, "q": float, "detuning_pm": 0.0})
        if len(vals["tuning_range_nm"]) != 2:
            raise ValueError(f"{ctx}.tuning_range_nm: expected [min, max], "
                             f"got {vals['tuning_range_nm']!r}")
        emitter_from_dict(vals["emitter"], f"{ctx}.emitter")
        Wavelength(cav["x_c_nm"])  # checked, like the emitter, q and brightness, then dropped
        if not cav["q"] > 0:
            raise ValueError(f"quality factor must be > 0, got {cav['q']}")
        lo, hi = (_decode(x, float, f"{ctx}.tuning_range_nm") for x in vals["tuning_range_nm"])
        brightness = vals["peak_brightness"]
        if not (0.0 < lo < hi and 0.0 <= brightness <= 1.0):
            raise ValueError(f"{vals['label']}: need 0 < min < max of tuning_range_nm and "
                             f"peak_brightness in [0, 1], got {lo}, {hi}, {brightness}")
        if not np.isfinite((hi - lo) * 1e3):  # pairs.json's width_pm
            raise ValueError(f"{ctx}.tuning_range_nm: the width of [{lo}, {hi}] overflows in pm")
        entries.append(CatalogEntry(vals["label"], (lo, hi)))
    return SourceCatalog(tuple(entries)), config_hash(raw)


def match_pairs(catalog: SourceCatalog) -> list[tuple[str, str, tuple[float, float]]]:
    """All cross-sample source pairs with intersecting tuning ranges.

    Sources on the same physical sample share one voltage-tuned chip and
    are not remote pairs, so only pairs with different label prefixes are
    eligible. Sorted by descending intersection width (ties by label), so
    the output is independent of catalog ordering.
    """
    if not catalog.sources:
        raise ValueError("catalog is empty")
    found = []
    for i, p in enumerate(catalog.sources):
        for q in catalog.sources[i + 1:]:
            if p.sample == q.sample:
                continue
            lo = max(p.tuning_range_nm[0], q.tuning_range_nm[0])
            hi = min(p.tuning_range_nm[1], q.tuning_range_nm[1])
            if lo < hi:
                a, b = sorted((p, q), key=lambda e: (e.sample, e.label))
                found.append((a.label, b.label, (lo, hi)))
    found.sort(key=lambda t: (-(t[2][1] - t[2][0]), t[0], t[1]))
    return found


def demo_catalog() -> SourceCatalog:
    """The five-source demo catalog: two sources on sample I, three on II.

    Tuning ranges are chosen to respect the documented constraints (II_A
    cannot tune below 924.847 nm, its brightest point) and to produce
    exactly the four realizable cross-sample pairs. Each source's emitter,
    micropillar cavity and peak brightness, which no command reads:
    emitters (T1 in ps, gamma* and delta-omega in ns^-1, FSS in ueV, charge,
    wavelength in nm; sideband fraction 0.05 and tau_c 1400 ns throughout)
    follow the characterized resonant pair (X excitons with fine-structure
    beating, measured noise parameters) and the LA pairs (trions): I_A 162,
    0.17, 4.7, 6.3, X, 924.847; I_B 240, 0.10, 3.0, 0, CX, 925.00; II_A 128,
    0.03, 2.12, 6.7, X, 924.847; II_B 212, 0.10, 3.0, 0, CX, 925.00; II_C
    219, 0.10, 3.0, 0, CX, 924.80. Cavities (mode in nm, Q, QD-cavity
    detuning in pm) and peak brightness: I_A 924.734, 2,900, 113, 0.124;
    I_B 924.95, 2,800, 50, 0.10; II_A 924.817, 1,700, 30, 0.185; II_B
    924.96, 1,900, 40, 0.12; II_C 924.75, 2,100, 50, 0.11.
    """
    entries = (
        CatalogEntry("I_A", (924.60, 925.00)),
        CatalogEntry("I_B", (924.90, 925.15)),
        CatalogEntry("II_A", (924.847, 924.88)),
        CatalogEntry("II_B", (924.92, 925.20)),
        CatalogEntry("II_C", (924.65, 924.84)),
    )
    return SourceCatalog(entries)


# ---------------------------------------------------------------------------
# Pipeline

def overlap_report(pair: SourcePair, cfg_hash: str) -> dict:
    """The closed-form overlaps of a pair, tagged with its config hash."""
    return {
        "s_classical": pair.s_classical,
        "m_no_dephasing": mwo_no_dephasing(pair.a.gamma, pair.b.gamma, pair.mean_detuning),
        "m_dephasing": mwo_with_dephasing(pair),
        "m_averaged": mwo_voigt_averaged(pair),
        "m_event_mean": analytic_prediction(pair),
        "config_hash": cfg_hash,
    }


def run_pipeline(config: RunConfig, cfg_hash: str) -> dict:
    """Analytic predictions, both-polarization Monte Carlo, visibility
    estimate and bound check; writes all artifacts into config.outputs."""
    pair = config.pair
    # the remote bound min(s, sqrt(m_a m_b)) with perfect single-source overlaps m = 1
    bound = pair.s_classical
    report = dict(overlap_report(pair, cfg_hash), upper_bound=bound)

    # parallel first: its shards are the long ones, so they head the queue
    h_par, h_perp = simulate_histograms(pair, config.experiment,
                                        (Polarization.PARALLEL, Polarization.PERPENDICULAR),
                                        config.seed, workers=config.workers)
    # only now: a pair whose profiles or delay shape cannot be built leaves no --out
    out = config.outputs
    out.mkdir(parents=True, exist_ok=True)
    (out / "overlap.json").write_text(json_text(report))
    write_histogram_csv(h_par, out / "histogram_par.csv", config_hash=cfg_hash)
    write_histogram_csv(h_perp, out / "histogram_perp.csv", config_hash=cfg_hash)

    est = estimate_visibility(h_par, h_perp, config.experiment.rep_period_ns)
    write_visibility_json(est, out / "visibility.json", config_hash=cfg_hash,
                          seed=config.seed)
    return dict(report, v_tpi=est.v_tpi, sigma=est.sigma,
                bound_satisfied=bool(est.v_tpi <= bound + 3.0 * est.sigma))


# ---------------------------------------------------------------------------
# Subcommands

def _emit(payload: dict, out_dir: Optional[str], filename: str) -> None:
    # the file first, so that a failed write (exit 2) prints nothing
    text = json_text(payload)
    if out_dir:
        d = Path(out_dir)
        d.mkdir(parents=True, exist_ok=True)
        (d / filename).write_text(text)
    sys.stdout.write(text)


def _emit_fit(result: FitResult, out_dir: Optional[str], filename: str) -> int:
    # an overflowing fit (a sigma of inf, say) is a numerical failure, not bad input
    if not all(map(math.isfinite, [*result.params.values(), *result.sigmas.values(),
                                   result.residual_norm])):
        raise FloatingPointError("fit result is not finite")
    _emit(result.to_dict(), out_dir, filename)
    if not result.converged:
        print("fit did not converge", file=sys.stderr)
        return 3
    return 0


def _cmd_overlap(args: argparse.Namespace) -> int:
    config, h = load_run_config(args.config,
                                filter_fwhm_override=args.filter_fwhm_pm,
                                seed_override=args.seed)
    _emit(overlap_report(config.pair, h), args.out, "overlap.json")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config, h = load_run_config(args.config, seed_override=args.seed,
                                pulses_override=args.pulses,
                                filter_fwhm_override=args.filter_fwhm_pm,
                                out_override=args.out, workers=args.workers)
    summary = run_pipeline(config, h)
    sys.stdout.write(json_text(summary))
    return 0


def _cmd_fit_lifetime(args: argparse.Namespace) -> int:
    trace = LifetimeTrace(*read_lifetime_csv(args.data), args.background)
    result = fit_lifetime(trace, LifetimeModel(args.model))
    return _emit_fit(result, args.out, "fit_lifetime.json")


def _cmd_fit_reflectivity(args: argparse.Namespace) -> int:
    wl, refl = read_reflectivity_csv(args.data)
    result = fit_reflectivity(wl, refl)
    return _emit_fit(result, args.out, "fit_reflectivity.json")


def _parse_override(text: str) -> tuple[str, float, float]:
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in ("filtered", "unfiltered"):
        raise ValueError(
            f"outlier override must be filtered|unfiltered:DELAY_NS:SIGMA, got {text!r}")
    return parts[0], float(parts[1]), float(parts[2])


def _cmd_fit_delay(args: argparse.Namespace) -> int:
    filtered = DelayVisibilitySeries.from_csv(args.filtered)
    unfiltered = DelayVisibilitySeries.from_csv(args.unfiltered)
    overrides = [_parse_override(o) for o in (args.outlier or [])]
    gamma = lifetime_to_rate(args.t1_ps)
    result = fit_delay_visibility(filtered, unfiltered, gamma,
                                  sigma_overrides=overrides or None)
    return _emit_fit(result, args.out, "fit_delay.json")


def _cmd_match_pairs(args: argparse.Namespace) -> int:
    if args.config:
        catalog, h = load_catalog(args.config)
    else:
        catalog = demo_catalog()
        h = config_hash({"demo_catalog": [s.label for s in catalog.sources]})
    pairs = match_pairs(catalog)
    payload = {
        "pairs": [{"a": a, "b": b,
                   "common_range_nm": [lo, hi],
                   "width_pm": (hi - lo) * 1e3}
                  for a, b, (lo, hi) in pairs],
        "config_hash": h,
    }
    _emit(payload, args.out, "pairs.json")
    return 0


def _cmd_predict_delay(args: argparse.Namespace) -> int:
    config, h = load_run_config(args.config,
                                filter_fwhm_override=args.filter_fwhm_pm)
    source = config.pair.a if args.source == "a" else config.pair.b
    span = 3.0 * source.tau_c_ns
    if not np.isfinite(span):
        raise ValueError(f"tau_c_ns must give a finite 3 tau_c delay span, got {source.tau_c_ns}")
    delays = np.linspace(0.0, span, 201)
    vis = individual_indistinguishability(source, delays)
    series = DelayVisibilitySeries(delays, vis, np.zeros_like(vis))
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "predicted_delay.csv"
    series.to_csv(path, header_comment=f"config_hash={h}")
    sys.stdout.write(f"wrote {path}\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `remotehom` argument parser, built on the first call and shared after.

    Parsing leaves it unchanged, so `main` reuses it on every call in a
    process.
    """
    parser = argparse.ArgumentParser(
        prog="remotehom",
        description="Two-photon interference of remote single-photon sources: "
                    "analytics, simulation, and fitting.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
        p.add_argument("--config", required=config_required, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("overlap", help="analytic overlap report for a pair")
    add_common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--filter-fwhm-pm", type=float, default=None)
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("simulate", help="coincidence histograms + visibility")
    add_common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pulses", type=int, default=None)
    p.add_argument("--filter-fwhm-pm", type=float, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit-lifetime", help="fit a decay trace CSV")
    p.add_argument("data", help="CSV with header time_ps,counts")
    p.add_argument("--model", choices=[m.value for m in LifetimeModel],
                   default="mono_exp")
    p.add_argument("--background", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_lifetime)

    p = sub.add_parser("fit-reflectivity", help="fit a Lorentzian reflectivity dip")
    p.add_argument("data", help="CSV with header wavelength_nm,reflectivity")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_reflectivity)

    p = sub.add_parser("fit-delay", help="joint delay-visibility fit for one source")
    p.add_argument("filtered", help="CSV delay_ns,visibility,sigma_v (filtered)")
    p.add_argument("unfiltered", help="CSV delay_ns,visibility,sigma_v (unfiltered)")
    p.add_argument("--t1-ps", type=float, required=True,
                   help="radiative lifetime from the lifetime fit")
    p.add_argument("--outlier", action="append", default=None,
                   metavar="SERIES:DELAY_NS:SIGMA",
                   help="inflate one point's uncertainty, e.g. unfiltered:12.2:0.1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_delay)

    p = sub.add_parser("match-pairs", help="cross-sample tuning-range matches")
    add_common(p, config_required=False)
    p.set_defaults(func=_cmd_match_pairs)

    p = sub.add_parser("predict-delay", help="emit the delay-visibility curve")
    add_common(p)
    p.add_argument("--filter-fwhm-pm", type=float, default=None)
    p.add_argument("--source", choices=["a", "b"], default="a")
    p.set_defaults(func=_cmd_predict_delay)

    return parser


# encoded here: out of memory, formatting or printing a message may fail in turn
_OUT_OF_MEMORY = b"error: MemoryError\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one `remotehom` command and return its exit code (0, 2 or 3).

    May be called any number of times in one process. Error lines go to
    `sys.stderr`, but the out-of-memory line goes straight to file descriptor 2.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except MemoryError:
        os.write(2, _OUT_OF_MEMORY)
        return 2
    except (FilterRegimeError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
