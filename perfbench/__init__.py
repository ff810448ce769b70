"""End-to-end and per-layer benchmark for libsuggest (see run.py)."""
