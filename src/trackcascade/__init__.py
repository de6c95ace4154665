"""Tracker-assisted cascaded object detection for video.

A cheap full-frame proposal source and a tracker's next-frame predictions
select regions of interest; an accurate refinement source is charged only
for those regions. Ships with an op-count cost model, mAP and entry-delay
evaluation, KITTI-format ingestion and a deterministic synthetic-sequence
generator.

The package root holds what the README's library example imports and the
two errors a caller catches. Every other name is imported from its module:
`trackcascade.geometry`, `.cascade`, `.costmodel`, `.tracker`, `.metrics`,
`.ingest`, `.synthetic` and `.errors`. Importing the root loads neither the
evaluator (`.metrics`) nor the generator (`.synthetic`).
"""

__version__ = "0.1.0"

from .cascade import FileBackedSource, Pipeline, PipelineConfig
from .errors import ConfigError, DataError
from .ingest import ClassMap, parse_detections, parse_meta

__all__ = [
    "__version__",
    "FileBackedSource",
    "Pipeline",
    "PipelineConfig",
    "ClassMap",
    "parse_detections",
    "parse_meta",
    "DataError",
    "ConfigError",
]
