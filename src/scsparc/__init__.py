"""Spatially coupled sparse superposition codes: encoding, AMP decoding,
state evolution, fast FFT-based design operators, and an experiment harness.
"""

from .amp import (
    AmpConfig,
    DecodeDiagnostics,
    OfflineSeSource,
    OnlineSeSource,
    decode,
    eta_denoise,
)
from .channel import ChannelParams, ebn0_db, snr_from_db, transmit
from .cs_amp import (
    BgBayesDenoiser,
    CsModel,
    MixturePrior,
    SoftThresholdDenoiser,
    bernoulli_gauss_prior,
    build_cs_base_matrix,
    cs_amp_decode,
    cs_design_matrix,
    run_cs_se,
)
from .design import (
    DenseGaussianDesign,
    DftDesign,
    build_dft_design,
    build_gaussian_design,
)
from .harness import ExperimentConfig, compare_to_se, run_experiment, write_results_csv
from .message import hard_decision, nmse, random_message, section_error_rate
from .params import (
    BaseMatrix,
    CouplingParams,
    SparcParams,
    build_base_matrix,
    derive_code_params,
)
from .state_evolution import (
    ProgressionReport,
    SeTrajectory,
    asymptotic_se,
    progression_report,
    run_se,
)

__version__ = "0.1.0"
