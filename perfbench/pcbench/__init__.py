"""PlinyCompute reproduction benchmark harness (see ../run.py)."""
