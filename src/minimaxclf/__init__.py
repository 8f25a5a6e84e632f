"""Minimax training for class-imbalanced classification, with Bayes-oracle
verification on Gaussian benchmarks."""

__version__ = "0.1.0"
