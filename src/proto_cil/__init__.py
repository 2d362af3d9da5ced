"""Exemplar-free class-incremental learning engine and benchmark harness."""

__version__ = "0.1.0"

from .datahub import (Dataset, LabeledImage, ScenarioSpec, TaskSequence, load_dataset,
                      make_scenario, synth_dataset)
from .features import FeatureMatrix, ingest_features, softmax
from .fusion import late_fuse, single_predict
from .harness import MetricsReport, RunConfig, accuracy, avg_acc, perf_drop, run_scenario
from .projector import (PrototypeState, accumulate, empty_state, init_projection, project,
                        score, select_lambda, solve_prototypes)
from .rpca import RpcaModel, rpca_apply, rpca_train

__all__ = [
    "Dataset", "LabeledImage", "ScenarioSpec", "TaskSequence", "load_dataset",
    "make_scenario", "synth_dataset",
    "FeatureMatrix", "ingest_features", "softmax",
    "late_fuse", "single_predict",
    "MetricsReport", "RunConfig", "accuracy", "avg_acc", "perf_drop", "run_scenario",
    "PrototypeState", "accumulate", "empty_state", "init_projection", "project", "score",
    "select_lambda", "solve_prototypes",
    "RpcaModel", "rpca_apply", "rpca_train",
]
