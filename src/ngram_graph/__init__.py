"""Walk-based unsupervised embeddings for vertex-attributed graphs.

The pipeline: parse molecules (or JSON graph documents) into attributed
graphs, embed vertices through a learned or random matrix, assemble
graph-level features from short walks, and feed them to a regularized
linear head or export them for external learners. A sensing/recovery lab
verifies that the walk features are a linear compression of per-attribute
co-occurrence counts and that those counts can be recovered.

The public names below resolve on first access (PEP 562): importing the
package, or one of its modules, loads no module it does not use. Each
access reads the name off its home module, so the package never holds a
copy of its own.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "schema": ("AttributeSchema", "FULL_SCHEMA", "REDUCED_SCHEMA", "SchemaError"),
    "graph": ("GraphError", "MolecularGraph", "read_json_graphs"),
    "sdf": ("MolRecord", "parse_sdf"),
    "featurize": ("featurize_corpus",),
    "vertex": ("EmbeddingError", "VertexEmbeddingMatrix", "load_embedding",
               "random_embedding", "save_embedding"),
    "cbow": ("CbowConfig", "Contexts", "extract_contexts", "train_cbow"),
    "ngram": ("GraphTooLarge", "NGramEmbedding", "WalkOverflow", "embed_corpus",
              "graph_embed", "oracle_embed"),
    "counts": ("CountStatistics", "count_statistics"),
    "sensing": ("BlockSensingMatrix", "build_sensing", "verify_identity"),
    "recovery": ("RecoveryConfig", "recovery_experiment", "sparse_recover"),
    "linear": ("LinearModel", "fit", "mae", "pr_auc", "rmse", "roc_auc"),
    "crossval": ("EvalReport", "PipelineConfig", "export_features", "kfold_cv",
                 "kfold_features", "load_features"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS or name == "matrixio":
        # importing a submodule binds it on the package, so this runs once
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
