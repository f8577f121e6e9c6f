"""Distance correlation for categorical data under general encodings.

Measures, tests, and screens dependence between categorical variables
whose levels are embedded as points in Euclidean space (one-hot, equally
spaced ordinal, equally spaced semicircle, or custom geometries).  The
package provides population quantities for known joint distributions,
plug-in and bias-corrected sample estimators, analytic and permutation
null inference, delta-method confidence intervals, high-dimensional sure
screening with a slope-break threshold, and a simulation harness with six
canned benchmark scenarios.
"""

from .encodings import (
    DistanceMatrix,
    Encoding,
    custom,
    distance_matrix,
    encoding_for_kind,
    load_metadata,
    one_hot,
    ordinal_equal,
    parse_metadata,
    semicircle_equal,
)
from .estimators import (
    EstimatePair,
    JointTable,
    bias_limit,
    dcor2_estimates,
    dcor2_mle,
    dcor2_unbiased,
    dcov2_estimates,
    dcov2_mle,
    dcov2_unbiased,
    dvar2_bias_limit,
    dvar2_mle,
    dvar2_unbiased,
    dvar_t_stats,
    t_stats,
)
from .exceptions import (
    CardinalityError,
    CatdcorError,
    ConfigurationError,
    DegenerateCategoryError,
    DegenerateDistributionError,
    DegenerateEncodingError,
    DegenerateMarginError,
    DistributionError,
    InfeasibleSettingError,
    InsufficientFeaturesError,
    InsufficientReplicatesError,
    InsufficientSampleError,
    InternalConsistencyError,
    InvalidThresholdError,
    LabelError,
    ParseError,
    ShapeError,
    UndefinedAUCError,
)
from .inference import (
    AltInference,
    NullSpectrum,
    TestResult,
    alt_inference,
    confidence_interval,
    independence_test,
    null_pvalue_mle,
    null_pvalue_unbiased,
    null_spectrum,
    permutation_test,
    q_matrix,
    spectrum,
    weighted_chisq_sf,
)
from .measures import (
    JointDistribution,
    dcor2,
    dcov2,
    dcov2_kronecker,
    dvar2,
)
from .screening import (
    BoundParams,
    ChangepointResult,
    ScreeningReport,
    apply_changepoint,
    changepoint_threshold,
    screen,
    screening_bound,
    select,
)
from .simulate import (
    BenchmarkResult,
    ConstructedJoint,
    SettingSpec,
    SimulatedDataset,
    build_joint,
    roc_auc,
    roc_points,
    run_benchmark,
    sample_dataset,
    setting_spec,
)

__version__ = "0.1.0"
