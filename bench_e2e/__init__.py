"""bench_e2e: the repo's end-to-end + per-layer benchmark (see README.md)."""
