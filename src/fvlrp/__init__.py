"""Fisher-vector image classification with pixel-level relevance maps.

The package glues four stages together: dense gradient-histogram
descriptors, a diagonal-Gaussian visual vocabulary with improved
Fisher-vector pooling, linear one-vs-rest scoring, and layer-wise
relevance propagation back onto descriptors and pixels. Evaluation
utilities quantify heatmap quality by most-relevant-first feature
replacement and by the outside/inside context ratio, and a small
feedforward network trained on downscaled pixels serves as the
comparison explainer.
"""

from .config import PipelineConfig, load_config, save_config
from .descriptors import (DescriptorSet, PcaModel, extract_dense, pca_apply,
                          pca_fit)
from .errors import PipelineError
from .evaluation import (ContextRatio, ContextReport, MorfTrace,
                         OrderingReport, QualityStats, area_above,
                         compare_orderings, context_ratio, context_report,
                         morf_ordering, morf_replace, sign_switch_fraction)
from .fisher import (EmbeddingIndex, ImprovedFisherVector, RawFisherVector,
                     aggregate, embed_batch, embed_descriptor, fv_length,
                     hellinger_check, improve, signed_sqrt)
from .gmm import GmmModel, em_fit, log_likelihood, responsibilities, sample
from .imaging import (BoundingBox, Heatmap, Image, load_annotations,
                      load_heatmap, load_image, render_heatmap,
                      save_annotations, save_heatmap, save_image)
from .lrp_fv import (Explanation, FvMappingView, R2Map, R3Map, explain,
                     relevance_r1, relevance_r2, relevance_r3)
from .lrp_nn import (DenseLayer, LayerRelevance, NeuralNet, downscale,
                     forward, image_to_input, lrp_alphabeta, lrp_epsilon,
                     nn_heatmap, nn_score, nn_scores, nn_train)
from .pipeline import ModelBundle, embed_image, train_all
from .serialization import load_model, save_model
from .svm import SvmModel, eer_threshold, predict_multilabel, score, train
from .synth import (CorpusSpec, LabeledImage, generate_corpus,
                    inject_artefact, label_vectors, two_class_spec)
from .verification import run_all

__version__ = "0.1.0"

__all__ = [
    "BoundingBox", "ContextRatio", "ContextReport",
    "CorpusSpec", "DenseLayer", "DescriptorSet", "EmbeddingIndex",
    "Explanation", "FvMappingView", "GmmModel", "Heatmap", "Image",
    "ImprovedFisherVector", "LabeledImage", "LayerRelevance", "ModelBundle",
    "MorfTrace", "NeuralNet", "OrderingReport", "PcaModel", "PipelineConfig",
    "PipelineError", "QualityStats", "R2Map", "R3Map", "RawFisherVector",
    "SvmModel", "aggregate", "area_above", "compare_orderings",
    "context_ratio", "context_report", "downscale", "eer_threshold",
    "em_fit", "embed_batch", "embed_descriptor", "embed_image", "explain",
    "extract_dense", "forward", "fv_length", "generate_corpus",
    "hellinger_check", "image_to_input", "improve",
    "inject_artefact", "label_vectors", "load_annotations", "load_config",
    "load_heatmap", "load_image", "load_model", "lrp_alphabeta",
    "lrp_epsilon", "morf_ordering", "morf_replace", "nn_heatmap", "nn_score",
    "nn_scores", "nn_train", "pca_apply", "pca_fit", "predict_multilabel",
    "log_likelihood", "relevance_r1", "relevance_r2", "relevance_r3",
    "render_heatmap", "responsibilities", "run_all", "sample",
    "save_annotations", "save_config",
    "save_heatmap", "save_image", "save_model", "score", "sign_switch_fraction",
    "signed_sqrt", "train", "train_all", "two_class_spec",
    "__version__",
]
