"""Closed-loop benchmark of the scbundles library; see run.py."""
