"""Measurement-device-independent QKD: relay model, decoy estimation, key rates.

Modules:

* optics: transfer matrix of the linear-optics relay and outcome
  probabilities for coherent and photon-number inputs
* protocol: yields, error rates, gains and the sift/bit-flip rules
* decoy: two-stage Poisson inversion recovering per-photon-number yields
* keyrate: asymptotic secret-key-rate bound and distance scans
* hom: two-pulse Hong-Ou-Mandel coincidence model
* cli: command-line front end (`mdiqkd keyrate|decoy|bsm|hom`)
"""

from .optics import (
    BsmOutcome,
    DetectorModel,
    NetworkConfig,
    Polarization,
    build_network,
    coherent_success_probs,
    fock_success_probs,
)
from .protocol import (
    Basis,
    SiftDecision,
    YieldErrorTable,
    build_yield_error_table,
    fock_yield_error,
    loss_adjusted_table,
    sift,
    wcp_gains_qbers,
)
from .decoy import (
    EstimationResult,
    IntensityGrid,
    InversionResult,
    ObservedStats,
    estimate_table,
    invert_poisson,
    observed_from_model,
    observed_from_table,
    poisson_pmf,
    poisson_weights,
    q11,
)
from .keyrate import (
    RateReport,
    ScanPoint,
    SystemModel,
    arm_transmittances,
    binary_entropy,
    distance_scan,
    find_cutoff,
    key_rate,
    rate_report,
)
from .hom import HomParams, HomPoint, coincidence_point, hom_scan, mode_overlap

__version__ = "0.1.0"
