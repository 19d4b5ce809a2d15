"""Compressed-sensing image recovery via group-sparse low-rank patches."""

from .lowrank import (
    DenoiseResult,
    SvdFactors,
    group_weights,
    irnn_denoise_group,
    irnn_denoise_stack,
    rank_sparsity_check,
    svd_small,
    wsvt,
)
from .measfile import MeasurementFile, read_measurements, write_measurements
from .measurement import (
    NoiseSpec,
    add_noise,
    make_operator,
    operator_norm_estimate,
)
from .metrics import QualityReport, psnr
from .patches import (
    GroupingConfig,
    GroupingError,
    PatchGroup,
    aggregate_groups,
    aggregate_stack,
    build_groups,
    extract_patch,
    group_stack,
    match_group,
)
from .penalties import Penalty, rho, supergradient
from .pgm import read_pgm, write_pgm
from .solver import (
    IterStats,
    SolverConfig,
    multiplier_update,
    q_update,
    recover,
    tau_from_config,
    x_step_robust,
    x_step_standard,
    z_step,
)
from .synthetic import make_motif_image

__version__ = "0.1.0"
