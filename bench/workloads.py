"""Seeded generators of CLI invocations, one per benchmark workload.

A workload is a sequence of rounds.  Every round holds the same fixed mix of
op kinds, and the seed draws only each op's parameters from the ranges
below, so the work in a round does not depend on the seed and the library
receives only generated inputs.  Round r of a given seed is always the same.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Device parameters drawn for keyrate and bsm ops.  Across these ranges every
# optimized cutoff lies between 0 and 500 km, so find_cutoff always takes the
# same 13 probes.
EFFICIENCY = (0.10, 0.50)
DARK_LOG10 = (-7.0, -5.0)
MISALIGNMENT = (0.005, 0.03)
PLACEMENTS = ("midpoint", "at-alice", "custom")
ARM_TOTAL_KM = 10.0          # custom placement: arm lengths sum to this
ARM_A_SHARE = (0.2, 0.8)
DEFAULT_DISTANCES = tuple(i * 12.5 for i in range(25))

FIXED_MU = (0.05, 0.6)       # keyrate --intensity-mode fixed
BSM_PHOTONS = (0, 3)         # inclusive range per side
BSM_MU = (0.01, 1.0)
HOM_MU = (0.01, 0.3)
HOM_FWHM_PS = (100.0, 400.0)
HOM_EFFICIENCY = (0.3, 1.0)
HOM_DARK = (0.0, 1e-5)
HOM_CEILING = (0.9, 1.0)
HOM_SPAN_PS = (500.0, 1500.0)
HOM_DELAYS = 81

# Decoy round trips use the reference devices; only the scenario varies.
DECOY_DEVICES = {"efficiency": 0.145, "dark": 6.02e-6, "misalignment": 0.015}
DECOY_DISTANCE_KM = (0.0, 100.0)
# Synthesis routes per n_max in a round.  Table synthesis at n_max 4 runs
# twice: sorted by time, a round's ops then have that kind in the middle, so
# it sets op_p50_s.  With every kind once, the middle fell between two kinds
# of similar time (n_max 4 table about 42 ms, n_max 3 model about 46 ms), and
# op_p50_s jumped between them from run to run.
DECOY_SYNTHESES = {3: ("table", "model"), 4: ("table", "table", "model"), 5: ("table", "model")}
DECOY_GRID_LO = (0.03, 0.06)  # n_max + 2 log-spaced intensities per side
DECOY_GRID_HI = (0.5, 0.7)
# Generated tables for `decoy --observed`: Y[n, m] = y0 + (1 - y0) * c *
# (1 - (1 - eta)^(n + m)) and e[n, m] uniform, with e[0, 0] = 1/2.
OBS_Y0_LOG10 = (-7.0, -5.0)
OBS_ETA = (0.05, 0.3)
OBS_SCALE = (0.3, 0.6)
OBS_ERROR = (0.01, 0.5)
OBS_GRID_LO = (0.05, 0.1)    # a wider grid than above keeps the inversion well posed
OBS_GRID_HI = (0.7, 0.9)
OBSERVED_FILES = 4            # per n_max, written before timing starts


@dataclass(frozen=True)
class Op:
    kind: str        # the output check to apply, a key of oracle.CHECKS
    argv: tuple      # arguments to `mdiqkd`, ending with --out
    out: str         # the result file the op writes
    params: dict     # the values argv was built from, for the check


def _num(x: float) -> float:
    """x rounded to four significant digits, so argv and params agree exactly."""
    return float(f"{x:.4g}")


def _arg(x) -> str:
    if isinstance(x, (tuple, list)):
        return ",".join(repr(float(v)) for v in x)
    return repr(x) if isinstance(x, float) else str(x)


def _argv(command: str, flags: dict, out: Path) -> tuple:
    # --key=value keeps a list that starts with a minus sign from reading as a flag.
    return (command, *(f"--{key}={_arg(value)}" for key, value in flags.items()),
            f"--out={out}")


class Workload:
    name = ""
    setup_runs = 15   # fresh interpreters timed for setup_s

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(self.name.encode()), *stream])

    def prepare(self) -> None:
        """Write the input files the ops read; runs before any timing."""

    def round(self, r: int, tag: str = "op") -> list[Op]:
        raise NotImplementedError

    def _out(self, tag: str, r: int, i: int, ext: str) -> Path:
        return self.workdir / f"{tag}-{r}-{i}.{ext}"


def _devices(rng) -> dict:
    return {
        "efficiency": _num(rng.uniform(*EFFICIENCY)),
        "dark": _num(10.0 ** rng.uniform(*DARK_LOG10)),
        "misalignment": _num(rng.uniform(*MISALIGNMENT)),
    }


def _device_flags(p: dict) -> dict:
    return {"detector-efficiency": p["efficiency"], "dark-count-prob": p["dark"],
            "misalignment": p["misalignment"]}


def _placement(rng) -> tuple[dict, dict]:
    placement = PLACEMENTS[rng.integers(len(PLACEMENTS))]
    params: dict = {"placement": placement}
    flags: dict = {"relay-position": placement}
    if placement == "custom":
        arm_a = _num(ARM_TOTAL_KM * rng.uniform(*ARM_A_SHARE))
        params.update(arm_a=arm_a, arm_b=_num(ARM_TOTAL_KM - arm_a))
        flags.update({"arm-length-a-km": params["arm_a"], "arm-length-b-km": params["arm_b"]})
    return params, flags


def _keyrate_op(rng, out: Path, fixed: bool) -> Op:
    params = _devices(rng)
    placement, placement_flags = _placement(rng)
    params.update(placement, distances=DEFAULT_DISTANCES, fixed_mu=None)
    flags = {**_device_flags(params), **placement_flags}
    if fixed:
        # One intensity for both, as the optimizer and the defaults use: with
        # unequal intensities and an off-center relay the rate can rise with
        # distance, and find_cutoff, which assumes it falls, then reports 0 km.
        mu = _num(rng.uniform(*FIXED_MU))
        params["fixed_mu"] = (mu, mu)
        flags.update({"intensity-mode": "fixed", "fixed-mu-a": params["fixed_mu"][0],
                      "fixed-mu-b": params["fixed_mu"][1]})
    return Op("keyrate", _argv("keyrate", flags, out), str(out), params)


class ScanOptimized(Workload):
    """One full `keyrate` scan per round, intensities optimized per distance."""

    name = "scan_optimized"
    setup_runs = 5    # each runs a full scan, about 3 s

    def round(self, r: int, tag: str = "op") -> list[Op]:
        return [_keyrate_op(self.rng(r), self._out(tag, r, 0, "csv"), fixed=False)]


class DecoyRoundtrip(Workload):
    """Decoy synthesis by both routes at each n_max, and one inversion per n_max."""

    name = "decoy_roundtrip"

    def prepare(self) -> None:
        self.observed: dict[int, list[tuple[Path, dict]]] = {}
        for n_max in DECOY_SYNTHESES:
            files = []
            for k in range(OBSERVED_FILES):
                rng = self.rng(1, n_max, k)
                path = self.workdir / f"observed-{n_max}-{k}.json"
                params, stats = _observed_stats(rng, n_max)
                path.write_text(json.dumps(stats), encoding="utf-8")
                files.append((path, params))
            self.observed[n_max] = files

    def round(self, r: int, tag: str = "op") -> list[Op]:
        rng = self.rng(0, r)
        ops = []
        for n_max, routes in DECOY_SYNTHESES.items():
            for route in routes:
                out = self._out(tag, r, len(ops), "json")
                params = {**DECOY_DEVICES, "n_max": n_max,
                          "distance_km": _num(rng.uniform(*DECOY_DISTANCE_KM))}
                flags = {"format": "json", "decoy-distance-km": params["distance_km"],
                         "decoy-synthesis": route, "estimation-n-max": n_max,
                         "grid-alice": _decoy_grid(rng, n_max),
                         "grid-bob": _decoy_grid(rng, n_max)}
                ops.append(Op("decoy", _argv("decoy", flags, out), str(out), params))
            path, params = self.observed[n_max][r % OBSERVED_FILES]
            out = self._out(tag, r, len(ops), "json")
            flags = {"observed": path, "estimation-n-max": n_max}
            ops.append(Op("decoy_observed", _argv("decoy", flags, out), str(out), params))
        return ops


def _decoy_grid(rng, n_max: int, lo_range=DECOY_GRID_LO, hi_range=DECOY_GRID_HI) -> tuple:
    lo, hi = rng.uniform(*lo_range), rng.uniform(*hi_range)
    return tuple(_num(v) for v in np.geomspace(lo, hi, n_max + 2))


def poisson_matrix(mus, n_max: int) -> np.ndarray:
    """P[i, n]: probability of n photons in a pulse of mean mus[i], n <= n_max."""
    n = np.arange(n_max + 1)
    mus = np.asarray(mus, dtype=float)[:, None]
    return np.exp(-mus) * mus ** n / np.array([math.factorial(k) for k in n])


def _observed_stats(rng, n_max: int) -> tuple[dict, dict]:
    """A random yield/error table and its exact decoy statistics, as JSON."""
    y0 = 10.0 ** rng.uniform(*OBS_Y0_LOG10)
    eta, scale = rng.uniform(*OBS_ETA), rng.uniform(*OBS_SCALE)
    photons = np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1))
    yields = y0 + (1.0 - y0) * scale * (1.0 - (1.0 - eta) ** photons)
    errors = rng.uniform(*OBS_ERROR, size=yields.shape)
    errors[0, 0] = 0.5
    grid_a, grid_b = (_decoy_grid(rng, n_max, OBS_GRID_LO, OBS_GRID_HI) for _ in "ab")
    w_a, w_b = poisson_matrix(grid_a, n_max), poisson_matrix(grid_b, n_max)
    gains = w_a @ yields @ w_b.T
    qbers = (w_a @ (yields * errors) @ w_b.T) / gains
    stats = {"basis": ("rect", "diag")[rng.integers(2)],
             "alice_intensities": list(grid_a), "bob_intensities": list(grid_b),
             "gains": gains.tolist(), "qbers": qbers.tolist()}
    params = {"yields": yields.tolist(), "errors": errors.tolist(),
              "grid_a": grid_a, "grid_b": grid_b}
    return params, stats


class ShortRuns(Workload):
    """bsm with Fock and coherent inputs, hom, and keyrate at fixed intensities."""

    name = "short_runs"

    def round(self, r: int, tag: str = "op") -> list[Op]:
        rng = self.rng(r)
        ops = []

        out = self._out(tag, r, 0, "csv")
        params = {**_devices(rng), "input": "fock",
                  "photons_a": int(rng.integers(BSM_PHOTONS[0], BSM_PHOTONS[1] + 1)),
                  "photons_b": int(rng.integers(BSM_PHOTONS[0], BSM_PHOTONS[1] + 1))}
        flags = {**_device_flags(params), "bsm-input": "fock",
                 "bsm-photons-a": params["photons_a"], "bsm-photons-b": params["photons_b"]}
        ops.append(Op("bsm", _argv("bsm", flags, out), str(out), params))

        out = self._out(tag, r, 1, "csv")
        params = {**_devices(rng), "input": "coherent",
                  "mu_a": _num(rng.uniform(*BSM_MU)), "mu_b": _num(rng.uniform(*BSM_MU))}
        flags = {**_device_flags(params), "bsm-input": "coherent",
                 "bsm-mu-a": params["mu_a"], "bsm-mu-b": params["mu_b"]}
        ops.append(Op("bsm", _argv("bsm", flags, out), str(out), params))

        out = self._out(tag, r, 2, "csv")
        span = rng.uniform(*HOM_SPAN_PS)
        params = {"mu": _num(rng.uniform(*HOM_MU)), "fwhm_ps": _num(rng.uniform(*HOM_FWHM_PS)),
                  "efficiency": _num(rng.uniform(*HOM_EFFICIENCY)),
                  "dark": _num(rng.uniform(*HOM_DARK)),
                  "ceiling": _num(rng.uniform(*HOM_CEILING)),
                  "delays": tuple(_num(t) for t in np.linspace(-span, span, HOM_DELAYS))}
        flags = {"hom-mean-photon-number": params["mu"], "hom-fwhm-ps": params["fwhm_ps"],
                 "hom-efficiency": params["efficiency"], "hom-dark-prob": params["dark"],
                 "hom-overlap-ceiling": params["ceiling"], "hom-delays-ps": params["delays"]}
        ops.append(Op("hom", _argv("hom", flags, out), str(out), params))

        ops.append(_keyrate_op(rng, self._out(tag, r, 3, "csv"), fixed=True))
        return ops


WORKLOADS = {w.name: w for w in (ScanOptimized, DecoyRoundtrip, ShortRuns)}
