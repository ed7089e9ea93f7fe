"""Serving benchmark for the selection stack (see README.md)."""
