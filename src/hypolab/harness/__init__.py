"""CLI, config ingestion, and SVG artifact emission; the run manifest is
written by ``cli.main``."""
from .config import ExperimentConfig, load_config, parse_config_text, resolved_text

__all__ = [
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
    "resolved_text",
]
