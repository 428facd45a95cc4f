"""Analysis (`analyzer` / `er_print`): data reduction and reports."""

from .metrics import MetricDef, METRICS
from .model import ReducedData, DataObjectKey, UNKNOWN_KINDS
from .oracle import OracleReport, oracle_experiment, oracle_experiments
from .reduce import reduce_experiment, reduce_experiments
from .feedback import (
    PrefetchHint,
    make_prefetch_feedback,
    save_feedback,
    load_feedback,
)
from . import reports

__all__ = [
    "MetricDef",
    "METRICS",
    "ReducedData",
    "DataObjectKey",
    "UNKNOWN_KINDS",
    "reduce_experiment",
    "reduce_experiments",
    "OracleReport",
    "oracle_experiment",
    "oracle_experiments",
    "PrefetchHint",
    "make_prefetch_feedback",
    "save_feedback",
    "load_feedback",
    "reports",
]
