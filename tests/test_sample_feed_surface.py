"""The metrics pipeline's sample feed, pinned name by name.

Every engine hands ``MetricsPipeline`` one sample as per-node columns
through ``observe_columns``, and the column type picks one of two views.
A second feed method or a third view has to be added to these tables on
purpose.  Standard library only, so it runs on every leg.
"""

import inspect

from repro.metrics import views
from repro.metrics.pipeline import MetricsPipeline

#: The one way a sample reaches the observers.
FEEDS = ["observe_columns"]

#: The read surface and its two column types (Python sequences, NumPy).
VIEW_CLASSES = ["ArrayView", "ColumnsView", "SampleView"]


def test_the_pipeline_has_one_feed():
    feeds = sorted(name for name in dir(MetricsPipeline) if name.startswith("observe"))
    assert feeds == FEEDS
    assert len(FEEDS) == 1
    assert list(inspect.signature(MetricsPipeline.observe_columns).parameters) == [
        "self",
        "time",
        "ids",
        "index",
        "logical",
        "max_estimate",
        "mode",
    ]


def test_the_views_module_defines_the_pinned_views():
    defined = sorted(
        name
        for name, value in vars(views).items()
        if inspect.isclass(value) and value.__module__ == views.__name__
    )
    assert defined == VIEW_CLASSES
    assert len(VIEW_CLASSES) == 3

