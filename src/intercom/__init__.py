"""Intercommunity mobilization detection, analysis, and prediction."""

__version__ = "0.1.0"  # set before the imports: the pipeline's run record reads it

from .corpus import (Corpus, CrossLink, Event, extract_crosslinks, index_events, load_events,
                     members)
from .matching import MatchedPair, NoMatchError, matched_post, matched_user
from .mobilization import MobilizationRecord, baseline_ratio, detect, measure
from .replynet import ReplyGraph, build_reply_graph, echo_metrics, group_pagerank
from .impact import activity_delta, defense_success, mann_whitney_u, wilcoxon_signed_rank
from .sentiment import (
    Lexicon,
    builtin_lexicon,
    extract_text_features,
    predict_sentiment,
    strip_shared_words,
)
from .forest import Forest, train_forest
from .embed import build_bipartite, nearest_communities, train_embeddings
from .predictor import assemble_sequence, auc, baseline_features, train
from .lstm import gradient_check, init_params, lstm_forward, predict_prob
from .pipeline import Config, run_pipeline
