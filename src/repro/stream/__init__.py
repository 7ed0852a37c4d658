"""BGPStream-like data access layer and the live maintenance pipeline.

``archive`` persists route records as compressed JSON-lines, organised
the way real MRT archives are (project/collector/type/date); ``bgpstream``
exposes the familiar iterator API over either an archive on disk or a
live :class:`~repro.simulation.scenario.SimulatedInternet`.  ``live``
consumes such a stream continuously, keeping the policy-atom partition
current with one incremental atom index (``repro live``), and
``windows`` holds its per-window metric containers.
"""

from repro.stream.archive import RecordArchive
from repro.stream.bgpstream import BGPStream
from repro.stream.filters import RecordFilter, apply
from repro.stream.live import (
    LiveConfig,
    LiveError,
    LiveParityError,
    LivePipeline,
    LiveRun,
)
from repro.stream.mrt import MRTReader, MRTWriter, read_mrt
from repro.stream.windows import (
    WindowResult,
    render_window_table,
    window_churn,
    window_correlation,
    window_series,
)

__all__ = [
    "BGPStream",
    "LiveConfig",
    "LiveError",
    "LiveParityError",
    "LivePipeline",
    "LiveRun",
    "MRTReader",
    "MRTWriter",
    "RecordArchive",
    "RecordFilter",
    "WindowResult",
    "apply",
    "read_mrt",
    "render_window_table",
    "window_churn",
    "window_correlation",
    "window_series",
]
