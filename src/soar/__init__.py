"""Vector-quantized inverted-file MIPS index with spilled (SOAR) assignment.

Each datapoint lives in its nearest partition and, optionally, in one spill
partition chosen so the two copies fail on different queries. Postings
carry 4-bit product-quantized residual codes; search reranks survivors with
exact scores.
"""

from .core import Dataset, Neighbor, brute_force_mips, rank
from .evaluation import (
    datapoints_to_recall,
    diagnostics,
    kmr_curve,
    lambda_sweep,
    mc_verify_lemma,
    mc_verify_theorem1,
    recall_at_k,
)
from .index import (
    IndexFormatError,
    SearchParams,
    SearchResult,
    SoarIndex,
    build,
    deserialize,
    load,
    memory_accounting,
    save,
    search,
    serialize,
)
from .pq import PQCodebook, pq_decode, train_pq
from .vq import (
    AssignmentTable,
    Codebook,
    assign_primary,
    assign_spilled_naive,
    assign_spilled_soar,
    soar_loss,
    train_kmeans,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Neighbor",
    "brute_force_mips",
    "rank",
    "Codebook",
    "AssignmentTable",
    "train_kmeans",
    "assign_primary",
    "soar_loss",
    "assign_spilled_soar",
    "assign_spilled_naive",
    "PQCodebook",
    "train_pq",
    "pq_decode",
    "memory_accounting",
    "SoarIndex",
    "SearchParams",
    "SearchResult",
    "IndexFormatError",
    "build",
    "search",
    "serialize",
    "deserialize",
    "save",
    "load",
    "kmr_curve",
    "datapoints_to_recall",
    "recall_at_k",
    "diagnostics",
    "lambda_sweep",
    "mc_verify_theorem1",
    "mc_verify_lemma",
    "__version__",
]
