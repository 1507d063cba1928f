"""Finite periodic 4D lattice: extents, site enumeration, forward differences."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

MultiIndex = tuple[int, int, int, int]


@dataclass(frozen=True)
class LatticeDims:
    """Extents (N0, N1, N2, N3) of a periodic lattice, one per axis."""

    n0: int
    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        for field in ("n0", "n1", "n2", "n3"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"lattice extent {field} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"lattice extent {field} must be >= 1, got {value}")
            object.__setattr__(self, field, int(value))
        # 16 coefficients per site must stay addressable as one array
        if self.volume > np.iinfo(np.intp).max // 32:
            raise ValueError(f"lattice volume {self.volume} too large to address")

    @property
    def shape(self) -> MultiIndex:
        return (self.n0, self.n1, self.n2, self.n3)

    @property
    def volume(self) -> int:
        return self.n0 * self.n1 * self.n2 * self.n3

    def extent(self, mu: int) -> int:
        return self.shape[_checked_axis(mu)]

    def wrap(self, k, what: str) -> MultiIndex:
        """The integer components of k modulo the extents; what names k when
        it has other than four components."""
        if len(k) != 4:
            raise ValueError(f"{what} must have four components, got {k!r}")
        return tuple(int(c) % n for c, n in zip(k, self.shape))

    @classmethod
    def parse(cls, text: str) -> "LatticeDims":
        """Parse a comma-separated extent list such as "4,4,4,4"."""
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"expected four comma-separated extents, got {text!r}")
        try:
            values = [int(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"non-integer lattice extent in {text!r}") from exc
        return cls(*values)


def _checked_axis(mu: int) -> int:
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"axis must be 0..3, got {mu}")
    return mu


def shift(k, mu: int, dims: LatticeDims) -> MultiIndex:
    """Forward neighbor of site k along axis mu, wrapping periodically."""
    _checked_axis(mu)
    site = list(dims.wrap(k, "site index"))
    site[mu] = (site[mu] + 1) % dims.extent(mu)
    return tuple(site)


def site_iter(dims: LatticeDims) -> Iterator[MultiIndex]:
    """All sites in row-major order: k0 varies slowest, k3 fastest."""
    return product(*(range(n) for n in dims.shape))


def delta_mu(f: np.ndarray, mu: int) -> np.ndarray:
    """Forward difference along axis mu: (delta f)(k) = f(k + e_mu) - f(k).

    Periodic wrap is inherited from np.roll.  The array may carry trailing
    non-site axes; only axis mu is touched.
    """
    _checked_axis(mu)
    return np.roll(f, -1, axis=mu) - f
