"""Quadrature of Lipschitz functionals against finite- and infinite-
dimensional measures, with quantization-based variance reduction,
cost-balanced Monte Carlo schedules, executable lower-bound
constructions, and an empirical rate-verification harness.
"""

__version__ = "0.1.0"

from .errors import ConfigurationError, NumericError, QuantQuadError
from .measures import (
    AffineCoeff,
    BrownianKL,
    ConstantCoeff,
    Diffusion,
    DiffusionSpec,
    LinearCoeff,
    MeasureSpec,
    SeedSpec,
    StdNormal,
    UniformCube,
    gbm_spec,
    reference_value,
    sample_batch,
)
from .paths import (
    Functional,
    Grid,
    NormKind,
    Subspace,
    make_kl_subspace,
    make_pl_subspace,
)
from .quantize import (
    Codebook,
    LloydOptions,
    distortion,
    lloyd,
    product_quantizer_bm,
    scalar_gaussian_quantizer,
    uniform_midpoint_codebook,
    voronoi_weights,
)
from .quadrature import (
    CostLedger,
    QuadratureResult,
    SmallBallProfile,
    classical_mc,
    euler_mc_schedule,
    subspace_mc_schedule,
    voronoi_quadrature,
    vr_mc,
)
from .adversary import (
    IncrementFamilySpec,
    bakhvalov_lower_bound,
    event_probability,
    fooling_family,
    gap_identity_check,
    increment_functional,
    lipschitz_check,
    subspace_blind_functional,
)
from .experiments import (
    RateExperimentConfig,
    RateFit,
    RatePoint,
    kl_tail_width,
    rate_fit,
    run_rate_experiment,
    width_estimate,
)
from .storage import load_codebook, save_codebook
