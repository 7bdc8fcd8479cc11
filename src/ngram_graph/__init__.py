"""Walk-based unsupervised embeddings for vertex-attributed graphs.

The pipeline: parse molecules (or JSON graph documents) into attributed
graphs, embed vertices through a learned or random matrix, assemble
graph-level features from short walks, and feed them to a regularized
linear head or export them for external learners. A sensing/recovery lab
verifies that the walk features are a linear compression of per-attribute
co-occurrence counts and that those counts can be recovered.
"""

from .schema import AttributeSchema, FULL_SCHEMA, REDUCED_SCHEMA, SchemaError
from .graph import (
    GraphError,
    MolecularGraph,
    read_json_graphs,
    validate_graph,
)
from .sdf import MolRecord, parse_sdf
from .featurize import featurize_corpus
from .vertex import (
    EmbeddingError,
    VertexEmbeddingMatrix,
    embed_vertices,
    load_embedding,
    random_embedding,
    save_embedding,
)
from .cbow import CbowConfig, Contexts, extract_contexts, train_cbow, train_on_graphs
from .ngram import (
    GraphTooLarge,
    NGramEmbedding,
    WalkOverflow,
    embed_corpus,
    graph_embed,
    oracle_embed,
)
from .counts import CountStatistics, count_statistics
from .sensing import BlockSensingMatrix, build_sensing, verify_identity
from .recovery import RecoveryConfig, recovery_experiment, sparse_recover
from .linear import LinearModel, fit, mae, pr_auc, rmse, roc_auc
from .crossval import (
    EvalReport,
    PipelineConfig,
    export_features,
    kfold_cv,
    kfold_features,
    load_features,
)

__version__ = "0.1.0"
