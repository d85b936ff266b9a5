"""Statistics collection and the paper's offline refresh analyses."""

from .collectors import ControllerStats, RankEvents
from .metrics import geomean, normalize, percent_change, speedup, weighted_speedup
from .refresh_analysis import WindowAnalysis, analyze_rank, blocked_per_refresh, rank_events

__all__ = [
    "ControllerStats",
    "RankEvents",
    "geomean",
    "normalize",
    "percent_change",
    "speedup",
    "weighted_speedup",
    "WindowAnalysis",
    "analyze_rank",
    "blocked_per_refresh",
    "rank_events",
]
