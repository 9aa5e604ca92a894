"""gstrans: inferring edge-constrained graph-signal pseudo-translations.

A pseudo-translation maps each vertex to one of its neighbors. This package
learns a stack of K such operators jointly with a weight-sharing classifier,
by relaxing the one-hot rows with a temperature-annealed masked softmax and
hardening them after training.
"""
from .data import Dataset, load_cifar10, load_webkb, make_ring_task, make_splits
from .evaluate import canonical_distances, evaluate_accuracy, transform_distance
from .graph import (Graph, build_grid_graph, build_knn_covariance_graph,
                    build_ring_graph)
from .nn import Model, TrainConfig, train
from .transforms import (EdgeLogits, Schedule, SoftTransforms,
                         apply_hard, convolve, harden, mode3_product, soften,
                         temperature_at, transforms_from_json, transforms_to_json)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "load_cifar10", "load_webkb", "make_ring_task", "make_splits",
    "canonical_distances", "evaluate_accuracy", "transform_distance",
    "Graph", "build_grid_graph", "build_knn_covariance_graph",
    "build_ring_graph",
    "Model", "TrainConfig", "train",
    "EdgeLogits", "Schedule", "SoftTransforms",
    "apply_hard", "convolve", "harden", "mode3_product", "soften",
    "temperature_at", "transforms_from_json", "transforms_to_json",
]
