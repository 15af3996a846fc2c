"""The attribute closure ``clo(R̃, R̃)`` of §5.2 (Condition (I)).

``clo`` is defined inductively:

1. ``att(R̃) ⊆ clo(R̃, R̃)``;
2. if ``pk(R̃′) ⊆ clo(R̃, R̃)`` for some ``R̃′ ∈ R̃`` then
   ``att(R̃′) ⊆ clo(R̃, R̃)``.

Attributes are qualified by relation name (``REL.attr``) since the paper
assumes each KV schema draws its attributes from one relation schema.
Chaining therefore happens among KV schemas of the same relation unless two
relations deliberately share qualified attribute names (they cannot here).

The fixpoint itself is :func:`repro.baav.schema.closure`; it depends on the
KV schemas alone, so a :class:`~repro.baav.schema.BaaVSchema` computes its
closures once and the query checks only read them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.baav.schema import BaaVSchema, closure

__all__ = ["closure", "closures"]


def closures(baav: BaaVSchema) -> Dict[str, FrozenSet[str]]:
    """``clo(R̃, R̃)`` for every KV schema of a BaaV schema."""
    return baav.closures()
