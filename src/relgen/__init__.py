"""Relation-weighted multi-head predictors for domain shift.

Train one output head per training domain on a shared feature extractor,
tie the heads together with a consistency loss weighted by inter-domain
relations (fixed meta-data similarities fused with a learned similarity
net), and predict on unseen domains by relation-weighted head averaging.
Ships two synthetic benchmarks, pooled-training baselines, and simulation
checks for the supporting theory.
"""

from ._version import __version__
