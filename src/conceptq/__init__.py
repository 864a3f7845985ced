"""conceptq: top-k entity retrieval for long concept queries.

A long concept query names a head noun with several modifiers ("top american
private university"). The engine decomposes it into short concepts over an
isA co-occurrence taxonomy, ranks the candidate entities by one exact
eigen-solve of their mutually recursive relevance, expands the concept set
probabilistically to recover entities the raw intersection misses, and
aggregates the resulting orderings and constraints into one ranking by
maximum a posteriori Bradley-Terry scores under a weak Gamma prior.

The package exports the entry points, the types they take and return, and
the engine's errors. Each stage's own functions (``parse``, ``membership``,
``baseline_rank``, ``expand``, ...) are imported from their modules.
"""

from .aggregate import ObjectiveWeights, ScoreVector, gradient
from .errors import (
    DataFormatError,
    EngineError,
    NoCandidateEntitiesError,
    QueryParseError,
    UnanswerableQueryError,
)
from .evaluation import (
    EvalReport,
    GroundTruth,
    fixture_f1,
    holdout_experiment,
    ratio_at_k,
    recall_at_k,
)
from .expansion import PairwiseConstraint
from .pipeline import PipelineConfig, QueryResult, run_query
from .taxonomy import Taxonomy, entity_intersection, entity_union, load

__version__ = "0.1.0"
