"""End-to-end and per-layer benchmark for shychase; run it with `python3 perfbench/run.py`."""
