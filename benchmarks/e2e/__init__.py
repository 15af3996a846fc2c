"""End-to-end SQL benchmark with per-layer attribution (see README.md)."""
