"""Wirelessly powered full-duplex MIMO relay: simulation and outage analysis."""

from .channel import ChannelRealization, SystemParams, relay_power, sample_channel
from .precoding import (
    BeamformingPair,
    Scheme,
    mrc_mrt,
    optimal,
    rzf,
    tzf,
)
from .outage import (
    OutageQuery,
    diversity_order,
    link_coefficients,
    outage_hd,
    outage_mrc_mrt,
    outage_rzf,
    outage_rzf_asymptotic,
    outage_tzf,
    outage_tzf_asymptotic,
)
from .simkit import (
    OutageEstimate,
    ThroughputPoint,
    estimate_outage,
    optimize_alpha,
    throughput,
)
from .sinr import SinrBreakdown, e2e_sinr, hd_snr
from .specfun import (
    QuadratureConvergenceError,
    digamma,
    integrate_semi_infinite,
    ln_gamma,
    meijer_special_cdf,
    reg_gamma_p,
    reg_gamma_q,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SystemParams",
    "ChannelRealization",
    "sample_channel",
    "relay_power",
    "Scheme",
    "BeamformingPair",
    "mrc_mrt",
    "tzf",
    "rzf",
    "optimal",
    "SinrBreakdown",
    "e2e_sinr",
    "hd_snr",
    "OutageQuery",
    "link_coefficients",
    "outage_tzf",
    "outage_tzf_asymptotic",
    "outage_rzf",
    "outage_rzf_asymptotic",
    "outage_mrc_mrt",
    "outage_hd",
    "diversity_order",
    "OutageEstimate",
    "ThroughputPoint",
    "estimate_outage",
    "throughput",
    "optimize_alpha",
    "QuadratureConvergenceError",
    "ln_gamma",
    "reg_gamma_p",
    "reg_gamma_q",
    "digamma",
    "meijer_special_cdf",
    "integrate_semi_infinite",
]
