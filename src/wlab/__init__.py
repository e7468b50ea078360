"""Random Weierstrass-type series at desk scale.

Generates random high-frequency trigonometric series, estimates the box
dimension of their graphs against the predicted 2 + log a / log b, verifies
grid-cover decay rates, and checks the occupation measure's L2 density via
histograms, Fourier profiles, and sinc-product identities.
"""

from .fn_core import (
    COS,
    COS_PLUS_HALF,
    BaseFunction,
    CoefficientDraw,
    FunctionSpec,
    GraphSample,
    base_function,
    build_spec,
    default_tolerance,
    dimension_formula,
    draw_coefficients,
    evaluate_many,
    explicit,
    geometric,
    sample_graph,
    sample_graphs,
    truncation_order,
    zero_draw,
)
from .covering import (
    CoverParams,
    DecayFit,
    FirstHitDecomposition,
    GridSet,
    cover_count,
    decay_fit,
    first_hit_sets,
    intersection_sequence,
    near_level_set,
    shrink_rate_bound,
)
from .dimension import (
    DensityError,
    DimensionEstimate,
    EnergyEstimate,
    box_count,
    box_dimension_scan,
    energy_estimate,
    energy_threshold_scan,
)
from .occupation import (
    AliasingError,
    DrawAverage,
    FourierProfile,
    OccupationDensity,
    ParsevalReport,
    ProductBoundReport,
    SincFactors,
    adaptive_char_profile,
    char_function_mc,
    char_function_profile,
    draw_average,
    occupation_histogram,
    pair_product_bound,
    parseval_check,
    sinc_product,
)
from .rng import substream

__version__ = "0.1.0"
