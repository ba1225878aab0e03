"""End-to-end and per-layer benchmark of the diurnal service and study.

Run it with ``python -m bench run``; see ``bench/README.md``.
"""
