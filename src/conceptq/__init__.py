"""conceptq: top-k entity retrieval for long concept queries.

A long concept query names a head noun with several modifiers ("top american
private university"). The engine decomposes it into short concepts over an
isA co-occurrence taxonomy, ranks the candidate entities by one exact
eigen-solve of their mutually recursive relevance, expands the concept set
probabilistically to recover entities the raw intersection misses, and
aggregates the resulting orderings and constraints into one ranking by
maximum a posteriori Bradley-Terry scores under a weak Gamma prior.
"""

from .aggregate import (
    ObjectiveWeights,
    ScoreVector,
    gradient,
    listwise_log_likelihood,
    objective,
    optimize,
    pairwise_log_likelihood,
)
from .baseline import BaselineRanking, baseline_rank
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
    evaluate_queries,
    fixture_f1,
    holdout_experiment,
    intpro_baseline,
    planted_instance,
    precision_at_k,
    ratio_at_k,
    recall_at_k,
)
from .expansion import (
    ConceptRelevance,
    ExpansionModel,
    ExpansionResult,
    PairwiseConstraint,
    expand,
    g_penalty,
    relevance,
)
from .pipeline import PipelineConfig, QueryResult, RankedEntity, run_query
from .query import (
    Decomposition,
    LongConceptQuery,
    Membership,
    MembershipPattern,
    decompose,
    membership,
    parse,
)
from .taxonomy import (
    CooccurrenceRecord,
    Taxonomy,
    entity_intersection,
    entity_union,
    ingest,
    load,
    normalize,
)

__version__ = "0.1.0"
