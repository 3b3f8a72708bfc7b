"""Exact arithmetic substrate: finite fields, subspaces, rational matrices."""
