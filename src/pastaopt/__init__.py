"""Pessimistic offline assortment optimization under the MNL choice model.

Fit a preference vector from logged (assortment, choice, revenue) data,
build a likelihood-ratio confidence region around the fit, and pick the
assortment whose worst-case expected revenue over that region is largest;
or compare against plain estimate-then-optimize on synthetic scenarios.
"""

from .datagen import (
    Instance,
    InstanceConfig,
    SamplingDesign,
    count_assortments,
    generate_dataset,
    generate_instance,
    sample_assortment,
)
from .diagnostics import (
    AssortmentDistribution,
    generalized_hellinger,
    ipw_value_estimate,
    kl_divergence,
    log_ratio_lipschitz_bound,
    population_nll,
    squared_hellinger,
)
from .harness import (
    ResultRow,
    SweepConfig,
    assortment_accuracy,
    read_results_csv,
    regret,
    run_sweep,
    summarize,
    write_metric_svg,
    write_results_csv,
)
from .likelihood import (
    ConfidenceRegion,
    FitOptions,
    MleFit,
    OfflineDataset,
    confidence_radius,
    fit_mle,
    neg_log_likelihood,
    nll_gradient,
    nll_hessian,
)
from .lp import (
    ConstraintSet,
    IntegralityError,
    LpInstance,
    LpSolution,
    SimplexError,
    best_assortment,
    brute_force_best,
    build_assortment_lp,
    cardinality_constraints,
    recover_assortment,
    solve_lp,
)
from .model import (
    Catalog,
    ChoiceDistribution,
    ParamSpace,
    as_assortment,
    choice_probabilities,
    expected_revenue,
    expected_revenue_gradient,
    sample_choice,
)
from .rng import derive_rng, derive_seed
from .solver import (
    GdlsStep,
    PastaOptions,
    SolveTrace,
    baseline_solve,
    gdls,
    pasta_solve,
)

__version__ = "0.1.0"
