"""Exact dual complexes of box partitions, embeddings, and hardness gadgets."""

from .boxes import (
    BalanceReport,
    CoverageGap,
    GridTooLarge,
    IntBox,
    OutOfBounds,
    Overlap,
    Partition,
    Pixel,
    ValidationError,
    balance_of_set,
    is_generic,
    partition_balance,
    validate_partition,
)
from .dual import (
    DimensionMismatch,
    DualComplex,
    NotTopSimplex,
    SeedChain,
    SeedConflict,
    SeedMisoriented,
    build_dual,
    orientation,
    seed_of,
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
    Unsupported,
    box_domain,
    enumerate_all,
    solve,
    verify_certificate,
)

__version__ = "0.1.0"
