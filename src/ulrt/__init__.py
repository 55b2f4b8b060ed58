"""Universal likelihood-ratio inference for the d-dimensional Gaussian mean.

Split, cross-fit, and subsampling confidence sets with finite-sample
validity, the classical likelihood-ratio baseline, closed-form size and power
theory, tests of a non-convex annulus null, and a deterministic Monte Carlo
engine that regenerates every figure's data at desk scale.
"""

from .data import SampleSet, SplitPair, sample_gaussian, split, subsample_splits
from .doughnut import (
    AnnulusNull,
    DoughnutTestResult,
    HybridCase,
    doughnut_ripr_log_statistic,
    doughnut_split_log_statistic,
    hybrid_log_statistic,
    intersection_power_exact,
    intersection_test,
    project_to_annulus,
    subsampled_doughnut_test,
)
from .engine import ExperimentSpec, SummaryRow, build_spec, coverage_suite, run
from .errors import (
    DegenerateDirectionError,
    DomainError,
    NumericError,
    UlrtError,
)
from .power import PowerEstimate, mc_power, power_classical, power_limiting_subsampling
from .regions import (
    Boundary2D,
    SphericalRegion,
    classical_region,
    crossfit_log_statistic,
    expected_sq_radius_split,
    limiting_subsampling_region,
    optimal_split_proportion,
    prob_ratio_leq4_bounds,
    ratio_bounds,
    ratio_bounds_log,
    ratio_expected_split_vs_classical,
    region_boundary_2d,
    split_log_statistic,
    split_region,
    subsampling_log_statistic,
)
from .rng import RngStream
from .specfun import (
    chi2_cdf,
    chi2_pdf,
    chi2_sf,
    chi2_upper_quantile,
    noncentral_chi2_cdf,
    std_normal_cdf,
)

__version__ = "0.1.0"
