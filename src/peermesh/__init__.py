"""Deterministic simulator and sizing toolkit for serverless app meshes."""
