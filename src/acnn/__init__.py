"""Sequence-labeling toolkit for disfluency detection built around an
auto-correlational first layer: from-scratch tensors and operators, a CNN
baseline, a synthetic corpus generator, and a benchmark harness."""

__version__ = "0.1.0"
