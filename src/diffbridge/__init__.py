"""diffbridge: deterministic diffusion bridging on analytic toy domains.

A numerical laboratory for depth-controlled domain migration: forward
and reverse diffusion with a deterministic sampler, probability-flow
integration between two data domains, spectral soft-labeling of the
cross-domain intermediates, and small trainable denoisers with
hand-written gradients -- all on domains simple enough that every
operation has an independent oracle.
"""

# Bound before the submodules load: config reads it, and train imports config.
__version__ = "0.1.0"

from . import attention, bridge, denoiser, diffusion, domains, schedule, softlabel, train
from .attention import (
    AttentionConfig,
    Direction,
    Priority,
    init_attention,
    select_priority,
)
from .bridge import (
    BridgeConfig,
    BridgeTrajectory,
    Integrator,
    NonFiniteStateError,
    depth_migrate,
    depth_sweep,
    flow_ode,
    migrate,
)
from .denoiser import (
    AnalyticFieldEpsilon,
    AnalyticGmmEpsilon,
    EpsilonModel,
    MlpDenoiser,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
)
from .diffusion import SamplerConfig, SigmaMode, ddim_sample, ddim_step, forward_noise
from .domains import (
    DomainPair,
    GaussianMixture,
    SpectralTexture,
    default_gmm_pair,
    gmm_log_density,
    gmm_sample,
    gmm_score,
    load_pgm,
    make_texture_pair,
    noised_mixture,
    save_pgm,
)
from .schedule import NoiseSchedule, linear_schedule
from .softlabel import (
    DegenerateEndpointsError,
    HighpassSpec,
    SoftLabel,
    calibrate_depth,
    highpass_magnitude,
    label_sweep,
    soft_label,
)
from .train import (
    TrainConfig,
    TrainingDivergedError,
    energy_distance,
    evaluate_fit,
    train_denoiser,
)
