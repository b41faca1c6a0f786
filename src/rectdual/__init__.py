"""Exact dual complexes of box partitions, embeddings, and hardness gadgets."""

from .boxes import (
    BalanceReport,
    CoverageGap,
    Genericity,
    GridTooLarge,
    IntBox,
    OutOfBounds,
    Overlap,
    Partition,
    ValidationError,
    balance_of_set,
    is_generic,
    validate_partition,
)
from .dual import (
    DimensionMismatch,
    DualComplex,
    InexactCoordinate,
    NotTopSimplex,
    SeedConflict,
    TooManyChains,
    build_dual,
    orientation,
    partition_balance,
)
from .embedding import (
    EmbeddingVerdict,
    NotFaithful,
    NotHalfIntegral,
    Projection,
    Violation,
    center_embeddable,
    center_projection,
    classify_projection,
)
from .solver import (
    SAT,
    TIMEOUT,
    UNSAT,
    CertificateRejected,
    DomainTooLarge,
    SolveResult,
    SolverConfig,
    UnknownBox,
    Unsupported,
    box_domain,
    enumerate_all,
    solve,
)

__version__ = "0.1.0"
