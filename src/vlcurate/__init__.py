"""vlcurate: indicator-scored, selector-ranked curation of vision-language
instruction data.

Pipeline: score four quality indicators per sample, assemble compact
embeddings (standardized scores + PCA-reduced multimodal features), learn
a selector from labeled sample subsets, then pick a small high-quality
training set spread over spectral clusters by proportional quota.
"""

__version__ = "0.1.0"

from .corpus import ScoreCache, ScoreRecord, Triplet, load_manifest
from .curate import CurationResult, aggregate_judgments, allocate, curate, select_topk
from .embedding import assemble_corpus, fit_feature_reducer, standardize
from .errors import VlcurateError
from .quality_labels import EvalReport, build_subsets, subset_labels
from .selector import SelectorModel, init_selector, loss_and_grad, predict, train

__all__ = [
    "CurationResult",
    "EvalReport",
    "ScoreCache",
    "ScoreRecord",
    "SelectorModel",
    "Triplet",
    "VlcurateError",
    "aggregate_judgments",
    "allocate",
    "assemble_corpus",
    "build_subsets",
    "curate",
    "fit_feature_reducer",
    "init_selector",
    "load_manifest",
    "loss_and_grad",
    "predict",
    "select_topk",
    "standardize",
    "subset_labels",
    "train",
    "__version__",
]
