"""Interaction between two binary exposures on a binary outcome: five
population measures from one logistic model, with simulation-based
percentile confidence intervals."""

from .data import (
    CovariateDistribution,
    Dataset,
    InputError,
    covariate_distribution,
    load_fixture,
)
from .fitting import (
    FitResult,
    SingularDesignError,
    fit,
    observed_information,
)
from .measures import (
    MEASURE_IDS,
    MeasureSet,
    RiskTable,
    dcrd,
    dmrd,
    measure_set,
    population_risk,
    rcor,
    rcrr,
    risk_table,
    rmor,
    rmrr,
)
from .model import (
    ModelSpec,
    SpecificationError,
    Term,
    design_matrix,
    expand_dataset,
    model_25_formula,
    model_26_formula,
    parse_formula,
)
from .simci import (
    IntervalEstimate,
    SimulationConfig,
    SimulationResult,
    cholesky,
    draw_parameters,
    histogram,
    simulate,
)

__version__ = "0.1.0"
