"""NumPy reference semantics of the Cedar library routines, one function
per routine of :data:`repro.cedar.library.CEDAR_LIBRARY`.

Apart from the catalogue so that pricing a library call (the estimator,
the restructurer's cost model) never imports NumPy; the interpreter
reaches these through :attr:`LibraryRoutine.fn`.
"""

from __future__ import annotations

import numpy as np


def ces_dotproduct(x, y):
    return float(np.dot(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))


def ces_sum(x):
    return float(np.sum(np.asarray(x, dtype=float)))


def ces_maxval(x):
    return float(np.max(np.asarray(x, dtype=float)))


def ces_minval(x):
    return float(np.min(np.asarray(x, dtype=float)))


def ces_maxloc(x):
    return int(np.argmax(np.asarray(x, dtype=float))) + 1


def ces_minloc(x):
    return int(np.argmin(np.asarray(x, dtype=float))) + 1


def ces_linrec(b, c):
    """First-order linear recurrence x(i) = x(i-1)*b(i) + c(i), x(0)=0."""
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    out = np.empty_like(c)
    acc = 0.0
    for i in range(len(c)):
        acc = acc * b[i] + c[i]
        out[i] = acc
    return out


def ces_prefix_sum(x):
    return np.cumsum(np.asarray(x, dtype=float))
