"""Norms, dual norms, rearrangements and risk functionals on finite
probability spaces, with brute-force verification of the duality relations
between them."""

from .space import (
    FiniteProbSpace,
    Partition,
    Rv,
    conditional_expectation,
    expectation,
    indicator,
    pairing,
)
from .rearrange import (
    StepFunction,
    cvar_infimum,
    distribution_fn,
    hardy_littlewood_sup,
    quantile,
    quantile_integral,
)
from .young import (
    MusielakFamily,
    YoungFunction,
    check_delta2,
    conjugate,
    young_exponential,
    young_from_table_file,
    young_indicator_ball,
    young_power,
    young_power_over_p,
    young_tabulated,
)
from .norms import (
    AxiomReport,
    CustomSeminorm,
    FundamentalFunctions,
    GenOrliczDualResult,
    GenOrliczNorm,
    LorentzNorm,
    LpNorm,
    LuxemburgNorm,
    MarcinkiewiczNorm,
    PhiConcave,
    RiskNorm,
    Seminorm,
    amemiya_dual_norm,
    check_axioms,
    family_membership,
    fundamental_functions,
    gen_orlicz_dual_norm,
    gen_orlicz_norm,
    lorentz_norm,
    lp_norm,
    luxemburg_norm,
    marcinkiewicz_norm,
    phi_identity,
    phi_power_root,
    phi_sqrt,
    phi_tabulated,
)
from .risk import (
    PenaltyResult,
    RiskAxiomReport,
    RiskDualResult,
    RiskMeasureSpec,
    avar,
    check_risk_axioms,
    custom_risk,
    entropic,
    evaluate_risk,
    penalty,
    penalty_gauge,
    risk_dual_norm,
    risk_norm,
)
from .duality import (
    BipolarReport,
    PolarResult,
    SandwichReport,
    SingularPartReport,
    density_of_functional,
    dual_spec_of,
    polar,
    rho_m,
    singular_part_report,
    verify_bipolar,
    verify_holder,
    verify_sandwich,
)
from ._optim import ConvergenceError

__version__ = "0.1.0"
