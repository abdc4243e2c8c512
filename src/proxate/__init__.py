"""Long-term treatment effect estimation from fused experimental and
observational samples, using proxy variables to absorb latent
confounding."""

from .basis import BasisSpec, FittedBasis, fit_basis
from .baselines import (
    DiagnosticReport,
    RegressionFit,
    diagnose_surrogacy,
    rct_benchmark,
    surrogate_index_estimate,
)
from .bridges import (
    BridgeFunction,
    MomentDiagnostics,
    solve_outcome_bridge,
    solve_surrogate_bridge,
)
from .data import (
    CombinedDataset,
    CsvSchema,
    FullyObservedSample,
    SampleView,
    load_csv,
    load_unmasked_csv,
    split_by_sample,
    write_csv,
    write_unmasked_csv,
)
from .dgp import (
    DGPConfig,
    DGPOracle,
    confounded_config,
    generate,
    generate_full,
    oracle_h_residual_check,
    unconfounded_config,
)
from .estimators import (
    EstimateReport,
    EstimatorConfig,
    FoldAssignment,
    NuisanceSet,
    confidence_interval,
    estimate_all,
    fit_fold_nuisances,
    fold_cells,
    make_folds,
)
from .harness import (
    MaskDesign,
    MCReport,
    apply_misspec,
    run_monte_carlo,
    split_and_mask,
)
from .nuisance import (
    HBarModel,
    PropensityModel,
    fit_hbar,
    fit_propensity,
)
from .stats import normal_cdf, normal_quantile

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
