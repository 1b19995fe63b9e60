"""Input validation helpers shared by the estimators."""

from __future__ import annotations

import numpy as np


class NonFiniteInput(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class NotFitted(RuntimeError):
    pass


def check_matrix(X):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteInput("X contains non-finite values")
    return X


def check_X_y(X, y):
    X = check_matrix(X)
    y = np.asarray(y)
    if len(y) != X.shape[0]:
        raise DimensionMismatch(
            f"X has {X.shape[0]} rows but y has {len(y)}")
    if y.dtype.kind == "f" and not np.isfinite(y).all():
        raise NonFiniteInput("y contains non-finite values")
    return X, y


def check_fitted(estimator):
    if not hasattr(estimator, "_nodes"):
        raise NotFitted(
            f"{type(estimator).__name__} is not fitted; call fit() first")
