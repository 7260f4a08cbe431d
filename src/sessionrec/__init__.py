"""Session-based recommendation from multi-level click-graph interactions.

The package turns raw click streams into next-item predictions by combining
two encoders: a gated graph network over each session's own transition graph,
and a multi-head graph attention network over the session joined with its most
similar past sessions. Both run on a built-in reverse-mode autodiff tape
(:mod:`sessionrec.gradkit`), so the whole model is gradient-checked end to end
without any deep-learning framework.
"""

from . import gradkit
from .baselines import ItemKnn, pop_scores, sknn_scores
from .corpus import (
    Event,
    ItemVocab,
    Session,
    SessionCorpus,
    TrainingExample,
    augment,
    drop_unseen_test_sessions,
    filter_corpus,
    ingest_events,
    load_corpus,
    parse_timestamp,
    read_events_csv,
    save_corpus,
    split_by_time,
    take_recent_fraction,
)
from .errors import (
    CheckpointError,
    ConfigError,
    CorpusError,
    GraphError,
    NumericsError,
    RetrievalError,
    SessionRecError,
    ShapeError,
    TrainingError,
)
from .evaluation import (
    EvalReport,
    evaluate_baseline,
    evaluate_model,
    rank_of,
    report_from_ranks,
    test_examples,
)
from .graphs import (
    InterGraph,
    IntraGraph,
    PackedGraphs,
    build_inter_graph,
    build_intra_graph,
    pack_inter,
    pack_intra,
)
from .model import (
    ModelConfig,
    ModelParams,
    bind_params,
    build_params,
    forward,
    forward_batch,
    fuse,
    gat_layer,
    ggnn_encode,
    inter_encode,
    loss,
    param_specs,
    score_and_predict,
    session_readout,
)
from .neighbors import (
    InvertedIndex,
    RetrievalConfig,
    build_index,
    candidates,
    neighbors,
    similarity,
)
from .training import TrainConfig, TrainResult, group_learning_rates, train

__version__ = "0.1.0"
