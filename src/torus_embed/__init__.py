"""Isometric embedding of finite affinely independent point sets into
regular polygonal tori, with independently verifiable certificates.

All operations are pure functions over immutable values and are safe to
call concurrently.
"""

from .almost_regular import (
    AlmostRegularCheck,
    RealizationPlan,
    check_almost_regular,
    embed_almost_regular,
    embed_regular_simplex,
    realization_plan,
)
from .certificate import (
    VERSION as __version__,
    EmbeddingCertificate,
    VerificationReport,
    dumps_certificate,
    load_certificate,
    loads_certificate,
    save_certificate,
    verify_certificate,
)
from .delta_embed import DeltaEmbedding, DeltaParams, product_embed
from .errors import (
    InputError,
    InvalidCertificate,
    NotAlmostRegular,
    NotEuclidean,
    NotSimplex,
    TrivialInput,
    VerificationFailed,
)
from .gen import generate_points, regular_simplex
from .geometry import (
    as_point_array,
    centered_gram,
    is_simplex,
    realize,
    squared_distances,
)
from .pipeline import (
    ExpansionDecomposition,
    embed_simplex,
    embed_squared_distances,
    schoenberg_decompose,
)
from .torus import (
    PolygonSpec,
    TorusPoint,
    TorusSpec,
    chord,
    pairwise_sq,
    shift,
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
    "dumps_certificate",
    "embed_almost_regular",
    "embed_regular_simplex",
    "embed_simplex",
    "embed_squared_distances",
    "generate_points",
    "is_simplex",
    "load_certificate",
    "loads_certificate",
    "pairwise_sq",
    "product_embed",
    "realization_plan",
    "realize",
    "regular_simplex",
    "save_certificate",
    "schoenberg_decompose",
    "shift",
    "squared_distances",
    "verify_certificate",
]
