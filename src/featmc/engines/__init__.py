"""Verification engines: enumerative, parametric and feature-aware bounded."""
