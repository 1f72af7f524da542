"""smallball: a numerical laboratory for small-deviation constants.

Evaluates the closed-form constants governing small deviations of
time-changed Brownian motion and second-order chaos integrals, and verifies
them at desk scale with variance-reduced Monte Carlo.  See the README for a
tour; the acceptance suite runs via ``smallball verify`` or pytest.
"""

from .asymptotics import (
    AsymptoticOrder,
    LaplaceOrder,
    Partition,
    IteratedSpec,
    WeightSequenceSpec,
    ClockOrder,
    tauberian_forward,
    tauberian_inverse,
    sup_bm_cdf,
    sup_bm_log_cdf,
    kappa_p,
    weighted_lp_clock_order,
    tsb_constant,
    iterated_first_order_constant,
    iterated_rate_exponent,
    weighted_sum_constant,
    chaos_sup_constant,
    chaos_clock_constant,
)
from .errors import NumericError
from .mc import (
    ConstantExtraction,
    EstimateResult,
    McConfig,
    estimate_laplace_multi,
    extract_constant,
    ks_critical_value,
    ks_two_sample,
    log_laplace,
    log_smallball,
    probe_smallball_conditional,
    probe_smallball_raw,
    sup_bm_grid_cdf,
)
from .paths import (
    BrownianProcess,
    ChaosClockSpec,
    ChaosDirectProcess,
    ClockSpec,
    PathGrid,
    PowerClockSpec,
    ProcessSpec,
    RngStream,
    TimeChangedProcess,
    clock_interval_increment_samples,
    clock_terminal_law_samples,
    clock_terminal_samples,
    dump_csv,
    geometric_q,
    quadratic_clock_spectrum,
    simulate_path,
    sup_samples,
)
from .schrodinger import EigenConfig, Lambda1Result, ground_state, lambda1
from .spectral import (
    AntisymmetricMatrix,
    SpectralData,
    interlace_check,
    load_matrix,
    project,
    singular_pairs,
)

__version__ = "0.1.0"
