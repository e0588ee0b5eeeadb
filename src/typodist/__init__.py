"""typodist: a sparse typological knowledge base with imputation,
customizable language distances, and per-pair confidence scores."""

from .aggregate import AggregatedMatrix, AggregationMode, aggregate
from .confidence import (
    ConfidenceReport,
    QualityCache,
    completeness,
    confidence_report,
    consistency,
    imputation_quality,
)
from .distance import (
    DistanceGrid,
    DistanceRequest,
    DistanceResult,
    Metric,
    distance_from_tensor,
    distance_matrix,
    genetic_distance,
    language_distance,
    matrix_for,
)
from .evalkit import (
    CaseStudyResult,
    CorrelationResult,
    CoverageReport,
    PermTestResult,
    QualityReport,
    case_study,
    coverage_report,
    kendall_tau,
    knn_select_k,
    perm_both_test,
    quality_test,
)
from .impute import (
    ImputedMatrix,
    ImputerSpec,
    fill_dialects,
    impute_external,
    impute_knn,
    impute_mean,
    impute_softimpute,
    run_imputer,
)
from .ingest import (
    CanonicalNamer,
    IdResolutionTable,
    InferenceRule,
    RuleDirection,
    apply_inference,
    binarize_nominal,
    binarize_ordinal,
    canonicalize_feature_name,
    resolve_language,
)
from .kb import (
    Category,
    CellArrays,
    CellValue,
    FeatureDescriptor,
    FeatureOrigin,
    FeatureTensor,
    LanguageRecord,
    ResourceTier,
    TensorBatch,
)

__version__ = "0.1.0"
