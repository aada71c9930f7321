"""FuXi-alpha sequential recommender: multi-channel SiLU attention with
temporal and positional bias channels, gated SwiGLU blocks, sampled-softmax
training, full-catalog ranking evaluation, and analysis instruments."""

__version__ = "0.1.0"

from .data import (
    DataError,
    DatasetSplit,
    InteractionLog,
    SyntheticSpec,
    batch_iterator,
    build_sequences,
    parse_interactions,
    split_leave_last,
    synthesize_dataset,
)
from .evaluate import MetricsReport, compute_metrics, evaluate, rank_of_target
from .model import (
    ModelConfig,
    ModelParams,
    SequenceBatch,
    ams_attention,
    build_attn_context,
    embed_sequence,
    forward,
    hstu_attention,
    init_params,
    mffn,
    param_count,
    predict_next,
    relative_time_bucket,
    sampled_loss,
    sampled_softmax_loss,
    softmax_attention,
)
from .poly import SimplifiedBlockSpec, SymbolicPoly, simplified_block_apply, verify_degree_bound
from .tensor import Tape, Tensor, backward, grad_check
from .train import TrainConfig, train

__all__ = [
    "__version__",
    "DataError",
    "DatasetSplit",
    "InteractionLog",
    "SyntheticSpec",
    "batch_iterator",
    "build_sequences",
    "parse_interactions",
    "split_leave_last",
    "synthesize_dataset",
    "MetricsReport",
    "compute_metrics",
    "evaluate",
    "rank_of_target",
    "ModelConfig",
    "ModelParams",
    "SequenceBatch",
    "ams_attention",
    "build_attn_context",
    "embed_sequence",
    "forward",
    "hstu_attention",
    "init_params",
    "mffn",
    "param_count",
    "predict_next",
    "relative_time_bucket",
    "sampled_loss",
    "sampled_softmax_loss",
    "softmax_attention",
    "SimplifiedBlockSpec",
    "SymbolicPoly",
    "simplified_block_apply",
    "verify_degree_bound",
    "Tape",
    "Tensor",
    "backward",
    "grad_check",
    "TrainConfig",
    "train",
]
