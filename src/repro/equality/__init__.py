"""Equality semantics across versions (Section 7.4).

Three comparison regimes, matching the paper's discussion:

* value equality ``=`` — shallow or deep, with automatic numeric coercion
  (:mod:`repro.equality.value`),
* identity equality ``==`` — persistent-identifier comparison over EIDs
  (:mod:`repro.equality.identity`),
* similarity ``~`` — a scored, threshold-based comparison in the style of
  Theobald & Weikum (:mod:`repro.equality.similarity`).

The paper's conclusion — "a combination of shallow equality and a
similarity operator [is] the most interesting solution" — is what the TXQL
``~`` operator implements, and benchmark E10 evaluates all three regimes on
the ambiguous-restaurant workload the section describes.
"""

from .value import coerce_scalar, deep_equal, shallow_equal, value_equal
from .identity import identity_equal
from .similarity import similar, similarity

__all__ = [
    "value_equal",
    "shallow_equal",
    "deep_equal",
    "coerce_scalar",
    "identity_equal",
    "similarity",
    "similar",
]
