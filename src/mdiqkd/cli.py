"""Command-line front end.

Subcommands: `keyrate` (rate-vs-distance scan), `decoy` (synthesize
observables and run the estimation round trip), `bsm` (outcome-probability
table for all 16 polarization pairs), `hom` (coincidence-dip sweep).

Every run resolves a full configuration (defaults, then config file, then
flags), embeds it into the output file, and is deterministic: identical
configurations produce byte-identical files.  Exit codes: 0 success,
2 configuration error, 3 numerical failure; errors are reported as a JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from itertools import product
from pathlib import Path

import numpy as np

from . import decoy, hom, keyrate, protocol
from .config import RunConfig, load_config_file
from .errors import ConfigError, NumericalFailure
from .optics import Polarization, coherent_success_probs, fock_success_probs
from .protocol import Basis, loss_adjusted_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_POL_ORDER = (Polarization.H, Polarization.V, Polarization.D, Polarization.A)

BSM_CSV_HEADER = "pol_a,pol_b,p_psi_minus,p_psi_plus,p_fail"
DECOY_CSV_HEADER = "basis,n,m,y_true,y_estimated,e_true,e_estimated"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdiqkd",
        description="Rate, estimation and interference models for "
                    "measurement-device-independent QKD.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, helptext in (
        ("keyrate", cmd_keyrate, "scan the secret key rate over distance"),
        ("decoy", cmd_decoy, "synthesize decoy observables and invert them"),
        ("bsm", cmd_bsm, "tabulate relay outcome probabilities"),
        ("hom", cmd_hom, "sweep the two-pulse coincidence dip"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(func=func)
        p.add_argument("--config", metavar="PATH", help="key = value configuration file")
        p.add_argument("--out", metavar="PATH", help="output file path")
        if name == "decoy":
            p.add_argument("--observed", metavar="PATH",
                           help="invert an externally produced observed-statistics JSON "
                                "file instead of synthesizing one; emits the estimated "
                                "yield/error table as JSON")
        for key in fields(RunConfig):
            p.add_argument(f"--{key.name.replace('_', '-')}", dest=f"key_{key.name}",
                           metavar="VALUE", help=key.metadata["help"])
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(load_config_file(args.config))
    for key in fields(RunConfig):
        value = getattr(args, f"key_{key.name}", None)
        if value is not None:
            mapping[key.name] = value
    return RunConfig.from_mapping(mapping)


def _csv_text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _write(path: Path, text: str) -> None:
    """Write one output file; the text is complete before the file is opened."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def _config_comments(config: RunConfig) -> list[str]:
    return [f"{key} = {value}" for key, value in config.resolved_items()]


def _out_path(args: argparse.Namespace, config: RunConfig, stem: str) -> Path:
    if args.out:
        return Path(args.out)
    return Path(f"{stem}.{config.format}")


def cmd_keyrate(args: argparse.Namespace, config: RunConfig) -> int:
    system = config.system()
    placement = config.placement()
    grid = np.geomspace(config.opt_grid_min, config.opt_grid_max, config.opt_grid_points)
    fixed = None
    if config.intensity_mode == "fixed":
        fixed = (config.fixed_mu_a, config.fixed_mu_b)
    points = keyrate.distance_scan(system, config.distances_km, placement,
                                   fixed_intensities=fixed, grid=grid)

    # The summary is computed before the scan is written, so that a failed
    # cutoff search leaves no output file.
    if config.attenuation_db_per_km > 0:
        cutoff = keyrate.find_cutoff(system, placement, grid=grid, fixed_intensities=fixed)
        farthest = max((p.distance_km for p in points if p.key_rate > 0.0), default=0.0)
        if cutoff == 0.0 and farthest > 0.0:
            # No rate at 0 km, but a positive one further out (fixed unequal
            # intensities with an off-center relay): bisect beyond the
            # farthest scanned distance with a positive rate.
            cutoff = keyrate.find_cutoff(system, placement, lo_km=farthest, grid=grid,
                                         fixed_intensities=fixed)
        d40 = 40.0 / config.attenuation_db_per_km
        at40 = keyrate._rate_point(system, d40, placement, grid=grid, fixed_intensities=fixed)
        summary = [f"cutoff_km = {cutoff:.2f}",
                   f"rate_at_40db_loss = {at40.key_rate:.6e} (distance {d40:g} km)"]
    else:
        summary = ["cutoff_km = n/a (lossless channel)",
                   "rate_at_40db_loss = n/a (lossless channel)"]

    path = _out_path(args, config, "keyrate_scan")
    if config.format == "csv":
        _write(path, _csv_text(keyrate.scan_csv_lines(points, comments=_config_comments(config))))
    else:
        _write(path, _json_text(keyrate.scan_json_obj(points, config=config.resolved_dict())))
    print(f"wrote {path}")
    print("\n".join(summary))
    return EXIT_OK


def _table_entries(table) -> dict:
    errors = [[None if math.isnan(v) else v for v in row] for row in table.errors.tolist()]
    return {"yields": table.yields.tolist(), "errors": errors}


def _error_metrics(true_table, est_table) -> dict:
    y_true, y_est = true_table.yields, est_table.yields
    abs_err = np.abs(y_est - y_true)
    sizable = np.abs(y_true) > 1e-8
    metrics = {
        "max_abs_error_yields": float(abs_err.max()),
        "max_rel_error_yields": float((abs_err[sizable] / np.abs(y_true[sizable])).max())
        if sizable.any() else None,
    }
    both = true_table.error_defined & est_table.error_defined
    if both.any():
        e_abs = np.abs(est_table.errors[both] - true_table.errors[both])
        metrics["max_abs_error_errors"] = float(e_abs.max())
    else:
        metrics["max_abs_error_errors"] = None
    return metrics


def _load_observed(path: str) -> decoy.ObservedStats:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return decoy.ObservedStats.from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read observed-statistics file {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed observed-statistics file {path}: {exc}") from exc


def _invert_external(args: argparse.Namespace, config: RunConfig) -> int:
    obs = _load_observed(args.observed)
    if min(len(obs.grid.alice), len(obs.grid.bob)) < config.estimation_n_max + 1:
        raise ConfigError(
            f"observed grid is too small for estimation_n_max = {config.estimation_n_max}: "
            f"need at least {config.estimation_n_max + 1} intensities per side")
    est = decoy.estimate_table(obs, n_max=config.estimation_n_max)
    path = Path(args.out) if args.out else Path("decoy_estimate.json")
    _write(path, _json_text({
        "config": config.resolved_dict(),
        "observed": obs.to_json_dict(),
        "estimated": est.table.to_json_dict(),
        "diagnostics": {
            "clamp_events": len(est.clamp_events),
            "max_residual": est.max_residual,
            "max_condition": est.max_condition,
        },
    }))
    print(f"wrote {path}")
    print(f"y11_estimated = {est.table.yields[1, 1]:.9e}" if config.estimation_n_max >= 1
          else "y11_estimated = n/a (n_max < 1)")
    return EXIT_OK


def cmd_decoy(args: argparse.Namespace, config: RunConfig) -> int:
    if getattr(args, "observed", None):
        return _invert_external(args, config)
    if config.estimation_n_max < 1:
        raise ConfigError("the decoy round trip reports Y11 and e11, so it needs "
                          "estimation_n_max >= 1")
    system = config.system()
    ta, tb = keyrate.arm_transmittances(system, config.decoy_distance_km, config.placement())
    grid = decoy.IntensityGrid(alice=config.grid_alice, bob=config.grid_bob)
    n_max = config.estimation_n_max

    per_basis: dict[str, dict] = {}
    summary: dict[str, float | None] = {}
    for basis in (Basis.RECT, Basis.DIAG):
        relay = protocol.build_yield_error_table(basis, system.transfer_matrix,
                                                 system.detector, n_max=n_max)
        truth = loss_adjusted_table(relay, ta, tb)
        if config.decoy_synthesis == "table":
            obs = decoy.observed_from_table(truth, grid)
        else:
            obs = decoy.observed_from_model(grid, basis, system.transfer_matrix,
                                            system.detector, transmittances=(ta, tb))
        est = decoy.estimate_table(obs, n_max=n_max)
        per_basis[basis.value] = {
            "true": _table_entries(truth),
            "estimated": _table_entries(est.table),
            "metrics": _error_metrics(truth, est.table),
            "clamp_events": len(est.clamp_events),
            "max_residual": est.max_residual,
            "max_condition": est.max_condition,
            "_tables": (truth, est.table),
        }

    rect_truth, rect_est = per_basis["rect"]["_tables"]
    diag_truth, diag_est = per_basis["diag"]["_tables"]
    y11_true = float(rect_truth.yields[1, 1])
    y11_est = float(rect_est.yields[1, 1])
    summary["y11_rect_true"] = y11_true
    summary["y11_rect_estimated"] = y11_est
    summary["y11_rect_rel_error"] = (abs(y11_est - y11_true) / y11_true
                                     if y11_true > 0 else None)
    e11_true = float(diag_truth.errors[1, 1])
    e11_est = float(diag_est.errors[1, 1])
    summary["e11_diag_true"] = None if math.isnan(e11_true) else e11_true
    summary["e11_diag_estimated"] = None if math.isnan(e11_est) else e11_est
    if not math.isnan(e11_true) and not math.isnan(e11_est):
        summary["e11_diag_abs_error"] = abs(e11_est - e11_true)

    q11_value = decoy.q11(config.fixed_mu_a, config.fixed_mu_b, y11_est)
    summary["q11_rect"] = q11_value
    summary["q11_mu_a"] = config.fixed_mu_a
    summary["q11_mu_b"] = config.fixed_mu_b

    for entry in per_basis.values():
        del entry["_tables"]

    path = _out_path(args, config, "decoy_roundtrip")
    if config.format == "json":
        _write(path, _json_text({
            "config": config.resolved_dict(),
            "distance_km": config.decoy_distance_km,
            "bases": per_basis,
            "summary": summary,
        }))
    else:
        lines = [f"# {c}" for c in _config_comments(config)]
        lines.append(DECOY_CSV_HEADER)
        for basis_name, truth, est in (("rect", rect_truth, rect_est),
                                       ("diag", diag_truth, diag_est)):
            for n in range(n_max + 1):
                for m in range(n_max + 1):
                    vals = (truth.yields[n, m], est.yields[n, m],
                            truth.errors[n, m], est.errors[n, m])
                    lines.append(f"{basis_name},{n},{m}," +
                                 ",".join(keyrate.format_float(v) for v in vals))
        _write(path, _csv_text(lines))

    print(f"wrote {path}")
    for basis_name, entry in per_basis.items():
        m = entry["metrics"]
        rel = m["max_rel_error_yields"]
        print(f"{basis_name}: max_abs_error_yields = {m['max_abs_error_yields']:.3e}, "
              f"max_rel_error_yields = {'n/a' if rel is None else f'{rel:.3e}'}, "
              f"clamp_events = {entry['clamp_events']}")
    e11_text = ("n/a" if summary["e11_diag_estimated"] is None
                else f"{summary['e11_diag_estimated']:.6e}")
    print(f"y11_rect_estimated = {y11_est:.9f}")
    print(f"e11_diag_estimated = {e11_text}")
    print(f"q11_rect(mu_a={config.fixed_mu_a:g}, mu_b={config.fixed_mu_b:g}) = {q11_value:.9e}")
    return EXIT_OK


def cmd_bsm(args: argparse.Namespace, config: RunConfig) -> int:
    system = config.system()
    pairs = tuple(product(_POL_ORDER, repeat=2))
    if config.bsm_input == "fock":
        success = fock_success_probs(config.bsm_photons_a, config.bsm_photons_b, pairs,
                                     system.transfer_matrix, system.detector)
    else:
        success = coherent_success_probs(config.bsm_mu_a, config.bsm_mu_b, pairs,
                                         system.transfer_matrix, system.detector)[0]
    rows = [(pol_a.value, pol_b.value, pm, pp, 1.0 - pm - pp)
            for (pol_a, pol_b), (pm, pp) in zip(pairs, success.tolist())]

    path = _out_path(args, config, "bsm_table")
    if config.format == "csv":
        lines = [f"# {c}" for c in _config_comments(config)]
        lines.append(BSM_CSV_HEADER)
        for pa, pb, pm, pp, pf in rows:
            lines.append(f"{pa},{pb}," + ",".join(keyrate.format_float(v)
                                                  for v in (pm, pp, pf)))
        _write(path, _csv_text(lines))
    else:
        _write(path, _json_text({
            "config": config.resolved_dict(),
            "rows": [{"pol_a": pa, "pol_b": pb, "p_psi_minus": pm,
                      "p_psi_plus": pp, "p_fail": pf}
                     for pa, pb, pm, pp, pf in rows],
        }))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_hom(args: argparse.Namespace, config: RunConfig) -> int:
    params = config.hom_params()
    points = hom.hom_scan(params)
    dip = hom.coincidence_point(0.0, params)
    far_delay = max(abs(t) for t in params.delays_ps)
    asymptote = hom.coincidence_point(far_delay, params)

    path = _out_path(args, config, "hom_scan")
    if config.format == "csv":
        _write(path, _csv_text(hom.hom_csv_lines(points, comments=_config_comments(config))))
    else:
        _write(path, _json_text(hom.hom_json_obj(points, config=config.resolved_dict())))
    print(f"wrote {path}")
    print(f"dip_c0 = {dip.c_norm:.6f}")
    print(f"asymptote_c = {asymptote.c_norm:.6f} (delay {far_delay:g} ps)")
    return EXIT_OK


def _fail(code: int, exc: Exception) -> int:
    payload = {"error": {"code": code, "type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        return args.func(args, config)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, exc)
    except NumericalFailure as exc:
        return _fail(EXIT_NUMERIC, exc)
    except ValueError as exc:
        return _fail(EXIT_CONFIG, exc)


if __name__ == "__main__":
    sys.exit(main())
