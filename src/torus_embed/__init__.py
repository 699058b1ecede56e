"""Isometric embedding of finite affinely independent point sets into
regular polygonal tori, with independently verifiable certificates.

All operations are pure functions over immutable values and are safe to
call concurrently.
"""

from .almost_regular import (
    AlmostRegularCheck,
    PairFactor,
    RealizationPlan,
    check_almost_regular,
    collapse_index,
    embed_almost_regular,
    realization_plan,
    realize_almost_regular,
)
from .certificate import (
    VERSION as __version__,
    EmbeddingCertificate,
    dumps_certificate,
    load_certificate,
    loads_certificate,
    save_certificate,
)
from .delta_embed import (
    DeltaEmbedding,
    DeltaParams,
    one_dim_embed,
    one_dim_params,
    product_embed,
)
from .errors import (
    InputError,
    InvalidCertificate,
    NotAlmostRegular,
    NotEuclidean,
    NotSimplex,
    TrivialInput,
    VerificationFailed,
)
from .gen import generate_points
from .geometry import (
    as_point_array,
    centered_gram,
    is_simplex,
    realize,
    squared_distances,
)
from .pipeline import (
    ExpansionDecomposition,
    PipelineConfig,
    VerificationReport,
    embed_simplex,
    schoenberg_decompose,
    verify_certificate,
)
from .simplex import circumradius_for_side, embed_regular_simplex, regular_simplex
from .torus import (
    PolygonSpec,
    TorusPoint,
    TorusSpec,
    chord,
    materialize,
    pairwise_sq,
    shift,
    torus_distance,
    torus_distance_sq,
)

__all__ = [
    "AlmostRegularCheck",
    "DeltaEmbedding",
    "DeltaParams",
    "EmbeddingCertificate",
    "ExpansionDecomposition",
    "InputError",
    "InvalidCertificate",
    "NotAlmostRegular",
    "NotEuclidean",
    "NotSimplex",
    "PairFactor",
    "PipelineConfig",
    "PolygonSpec",
    "RealizationPlan",
    "TorusPoint",
    "TorusSpec",
    "TrivialInput",
    "VerificationFailed",
    "VerificationReport",
    "as_point_array",
    "centered_gram",
    "check_almost_regular",
    "chord",
    "circumradius_for_side",
    "collapse_index",
    "dumps_certificate",
    "embed_almost_regular",
    "embed_regular_simplex",
    "embed_simplex",
    "generate_points",
    "is_simplex",
    "load_certificate",
    "loads_certificate",
    "materialize",
    "one_dim_embed",
    "one_dim_params",
    "pairwise_sq",
    "product_embed",
    "realization_plan",
    "realize",
    "realize_almost_regular",
    "regular_simplex",
    "save_certificate",
    "schoenberg_decompose",
    "shift",
    "squared_distances",
    "torus_distance",
    "torus_distance_sq",
    "verify_certificate",
]
