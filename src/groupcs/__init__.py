"""Compressed-sensing image recovery via group-sparse low-rank patches."""

from .lowrank import (
    group_weights,
    irnn_denoise_stack,
    wsvt,
)
from .measfile import MeasurementFile, read_measurements, write_measurements
from .measurement import NoiseSpec, add_noise, make_operator
from .metrics import QualityReport, psnr
from .patches import (
    GroupingConfig,
    GroupingError,
    aggregate_stack,
    group_stack,
)
from .penalties import Penalty, rho, supergradient
from .pgm import read_pgm, write_pgm
from .solver import (
    IterStats,
    SolverConfig,
    lam_for_tau,
    multiplier_update,
    q_update,
    recover,
    tau_from_config,
    x_step,
    z_step,
)
from .synthetic import make_motif_image

__version__ = "0.1.0"
