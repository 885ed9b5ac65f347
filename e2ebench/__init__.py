"""End-to-end and per-layer benchmark of the sampling and training paths."""
