"""Verdict objects returned by the theorem engine."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Status", "Verdict"]


class Status(Enum):
    """Embeddability status of :math:`Q_d(f)` in :math:`Q_d`."""

    ISOMETRIC = "isometric"
    NOT_ISOMETRIC = "not-isometric"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        raise TypeError(
            "Status is tri-valued; compare against Status.ISOMETRIC explicitly"
        )


@dataclass(frozen=True)
class Verdict:
    """Classification outcome with provenance.

    Attributes
    ----------
    f, d:
        The queried factor and dimension.
    status:
        Tri-valued embeddability answer.
    source:
        The paper statement (or engine) that settled it, e.g.
        ``"Proposition 3.1"`` or ``"brute force"``.
    via:
        The orbit representative of ``f`` the rule actually matched
        (Lemmas 2.2/2.3 transfer the answer back to ``f``).
    """

    f: str
    d: int
    status: Status
    source: str
    via: str

    def agrees_with(self, other: "Verdict") -> bool:
        """Two verdicts conflict only if both are decided and differ."""
        if self.status is Status.UNKNOWN or other.status is Status.UNKNOWN:
            return True
        return self.status is other.status

    def __str__(self) -> str:
        tag = {
            Status.ISOMETRIC: "Q_d(f) iso in Q_d",
            Status.NOT_ISOMETRIC: "Q_d(f) NOT iso in Q_d",
            Status.UNKNOWN: "undecided by the paper's theorems",
        }[self.status]
        return f"f={self.f} d={self.d}: {tag} [{self.source} via {self.via}]"
