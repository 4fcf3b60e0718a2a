"""Seeded end-to-end benchmark for the bint engine; entry point ``run.py``."""
