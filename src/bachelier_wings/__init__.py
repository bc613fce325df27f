"""Normal-model option pricing, implied volatility, and far-strike
smile diagnostics.

The package is organized in layers: `bachelier` holds the normalized
pricing formulas and analytic bounds, `inversion` the safeguarded
implied-volatility solvers, `models` the return-distribution zoo,
`pricing` the two independent price engines and smile assembly, `wings`
the far-strike diagnostics, and `cli` the command-line front end.
"""

from __future__ import annotations

from .bachelier import (
    bachelier_bounds,
    bachelier_bounds_log,
    call_price,
    call_price_log,
    mills_sandwich,
    mills_sandwich_log,
    norm_cdf,
    norm_pdf,
    put_price,
    put_price_log,
    vega,
)
from .errors import (
    AccuracyNotReached,
    BachelierWingsError,
    ConvergenceFailure,
    DampingOutsideStrip,
    DomainError,
    InsufficientWingData,
    ModelConfigError,
    NoSolutionBelowIntrinsic,
    NotApplicableInfiniteStrip,
    TailUnderflow,
)
from .inversion import (
    IvolResult,
    implied_vol_call,
    implied_vol_call_log,
    implied_vol_call_log_vec,
    implied_vol_call_vec,
    implied_vol_put,
    implied_vol_put_log,
    implied_vol_put_log_vec,
    implied_vol_put_vec,
)
from .models import (
    AnalyticityStrip,
    ModelSpec,
    asym_laplace_model,
    gaussian_model,
    mgf_blowup_boundary,
    model_schemas,
    nig_model,
    parse_model_config,
)
from .pricing import (
    DEFAULT_SETTINGS,
    PriceQuote,
    QuadratureSettings,
    log_call_price_from_tail,
    log_put_price_from_tail,
    price_from_cf,
    price_from_tail,
    smile_from_model,
)
from .smile import STATUS_FAILED, STATUS_OK, SmileGrid, SmilePoint
from .wings import (
    AsymptoticResidual,
    ConditionIProbe,
    VerdictSettings,
    WingEstimate,
    asymptotic_residuals,
    condition_i_probe,
    rv_index,
    tail_reference_curve,
    theorem_verdicts,
    wing_slope,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # pricing formulas and bounds
    "call_price", "put_price", "call_price_log", "put_price_log", "vega",
    "norm_pdf", "norm_cdf",
    "bachelier_bounds", "bachelier_bounds_log",
    "mills_sandwich", "mills_sandwich_log",
    # implied volatility
    "IvolResult",
    "implied_vol_call", "implied_vol_put",
    "implied_vol_call_log", "implied_vol_put_log",
    "implied_vol_call_vec", "implied_vol_put_vec",
    "implied_vol_call_log_vec", "implied_vol_put_log_vec",
    # models
    "ModelSpec", "AnalyticityStrip",
    "gaussian_model", "asym_laplace_model", "nig_model",
    "parse_model_config", "model_schemas", "mgf_blowup_boundary",
    # price engines and smiles
    "QuadratureSettings", "DEFAULT_SETTINGS", "PriceQuote",
    "price_from_tail", "price_from_cf",
    "log_call_price_from_tail", "log_put_price_from_tail",
    "smile_from_model",
    "SmilePoint", "SmileGrid", "STATUS_OK", "STATUS_FAILED",
    # wing diagnostics
    "WingEstimate", "AsymptoticResidual", "ConditionIProbe",
    "VerdictSettings",
    "wing_slope", "tail_reference_curve", "rv_index",
    "asymptotic_residuals", "condition_i_probe", "theorem_verdicts",
    # errors
    "BachelierWingsError", "DomainError", "NoSolutionBelowIntrinsic",
    "ConvergenceFailure", "ModelConfigError",
    "DampingOutsideStrip", "AccuracyNotReached", "TailUnderflow",
    "InsufficientWingData", "NotApplicableInfiniteStrip",
]
