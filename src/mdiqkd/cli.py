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
import contextlib
import json
import math
import os
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

# The columns of each result file: its CSV header and the keys of its JSON records.
KEYRATE_COLUMNS = ("distance_km", "mu_a", "mu_b", "q11_rect", "e11_diag", "q_rect", "e_rect",
                   "key_rate_raw", "key_rate")
DECOY_COLUMNS = ("basis", "n", "m", "y_true", "y_estimated", "e_true", "e_estimated")
BSM_COLUMNS = ("pol_a", "pol_b", "p_psi_minus", "p_psi_plus", "p_fail")
HOM_COLUMNS = ("delay_ps", "p1", "p2", "pc", "c_norm")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The mdiqkd parser, with the key flags on the subcommand that argv names.

    Every subcommand is registered, so the top-level help and the choice
    check see all four, but the 32 key flags are added only to the
    subcommand named by the first non-option word of argv, which is the
    only one that parses them.  Without argv every subcommand gets them.
    """
    chosen = None if argv is None else next((a for a in argv if not a.startswith("-")), "")
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
        if chosen not in (None, name):
            continue
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


def _write(path: Path, text: str) -> None:
    """Write one result file and report it; the text is complete beforehand.

    The text goes to a temporary file beside the target, which then replaces
    it, so a failure at any point leaves the old file, or none, in place.
    """
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc
    print(f"wrote {path}")


def _json_text(config: RunConfig, body: dict) -> str:
    return json.dumps({"config": config.resolved_dict(), **body},
                      indent=2, allow_nan=False) + "\n"


def _write_rows(args: argparse.Namespace, config: RunConfig, stem: str, header: tuple,
                rows: list[tuple], records: str = "", body: dict | None = None) -> None:
    """Write rows in the configured format to --out or stem.<format>.

    CSV: the config as `# key = value` lines, the header, then one line per
    row with floats as %.17g.  JSON: {"config": ..., **body}, where body
    defaults to {records: [header zipped with each row]}, NaN as null.
    """
    path = Path(args.out or f"{stem}.{config.format}")
    if config.format == "csv":
        lines = [f"# {key} = {value}" for key, value in config.resolved_items()]
        lines.append(",".join(header))
        lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                  for row in rows]
        _write(path, "\n".join(lines) + "\n")
    else:
        if body is None:
            body = {records: [{key: None if isinstance(v, float) and math.isnan(v) else v
                               for key, v in zip(header, row)} for row in rows]}
        _write(path, _json_text(config, body))


def cmd_keyrate(args: argparse.Namespace, config: RunConfig) -> int:
    fixed = (config.fixed_mu_a, config.fixed_mu_b) if config.intensity_mode == "fixed" else None
    # The report is complete before the scan is written: a failed cutoff leaves no file.
    report = keyrate.rate_report(
        config.system(), config.distances_km, config.placement(), fixed_intensities=fixed,
        grid=np.geomspace(config.opt_grid_min, config.opt_grid_max, config.opt_grid_points))
    rows = [tuple(getattr(p, column) for column in KEYRATE_COLUMNS) for p in report.points]
    _write_rows(args, config, "keyrate_scan", KEYRATE_COLUMNS, rows, "points")
    at40 = report.at_40db
    if at40 is None:
        print("cutoff_km = n/a (lossless channel)\nrate_at_40db_loss = n/a (lossless channel)")
    else:
        print(f"cutoff_km = {report.cutoff_km:.2f}\nrate_at_40db_loss = {at40.key_rate:.6e} "
              f"(distance {at40.distance_km:g} km)")
    return EXIT_OK


def _table_entries(table) -> dict:
    entries = table.to_json_dict()
    return {"yields": entries["yields"], "errors": entries["errors"]}


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
    _write(Path(args.out or "decoy_estimate.json"), _json_text(config, {
        "observed": obs.to_json_dict(),
        "estimated": est.table.to_json_dict(),
        "diagnostics": {
            "clamp_events": len(est.clamp_events),
            "max_residual": est.max_residual,
            "max_condition": est.max_condition,
        },
    }))
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
    tables = {}
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
        tables[basis.value] = (truth, est.table)
        per_basis[basis.value] = {
            "true": _table_entries(truth),
            "estimated": _table_entries(est.table),
            "metrics": _error_metrics(truth, est.table),
            "clamp_events": len(est.clamp_events),
            "max_residual": est.max_residual,
            "max_condition": est.max_condition,
        }

    (rect_truth, rect_est), (diag_truth, diag_est) = tables["rect"], tables["diag"]
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

    rows = [(name, n, m, truth.yields[n, m], est.yields[n, m], truth.errors[n, m],
             est.errors[n, m])
            for name, (truth, est) in tables.items()
            for n in range(n_max + 1) for m in range(n_max + 1)]
    _write_rows(args, config, "decoy_roundtrip", DECOY_COLUMNS, rows, body={
        "distance_km": config.decoy_distance_km,
        "bases": per_basis,
        "summary": summary,
    })
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
    _write_rows(args, config, "bsm_table", BSM_COLUMNS, rows, "rows")
    return EXIT_OK


def cmd_hom(args: argparse.Namespace, config: RunConfig) -> int:
    params = config.hom_params()
    points = hom.hom_scan(params)
    dip = hom.coincidence_point(0.0, params)
    far_delay = max(abs(t) for t in params.delays_ps)
    asymptote = hom.coincidence_point(far_delay, params)

    rows = [tuple(getattr(p, column) for column in HOM_COLUMNS) for p in points]
    _write_rows(args, config, "hom_scan", HOM_COLUMNS, rows, "points")
    print(f"dip_c0 = {dip.c_norm:.6f}")
    print(f"asymptote_c = {asymptote.c_norm:.6f} (delay {far_delay:g} ps)")
    return EXIT_OK


def _fail(code: int, exc: Exception) -> int:
    payload = {"error": {"code": code, "type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)
    return code


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
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
