"""Closed-loop guidance benchmark for pfguide; entry point ``run.py``."""
