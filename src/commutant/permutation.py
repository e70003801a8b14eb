"""Finite permutations on {1, ..., k}, stored as tuples of images."""

from __future__ import annotations

import itertools
import sys
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import ArgumentError, DomainError, RangeError, _as_list, _is_integer

if TYPE_CHECKING:  # numpy loads only when matrix() is called
    import numpy as np

#: highest degree of Permutation.identity: its images are a tuple of Python
#: ints, ~36 B each with the tuple's slot, so 2**21 of them take ~72 MiB,
#: within the 128 MiB that errors.MAX_DENSE_ENTRIES allows an array
_MAX_DEGREE = 2**21


class Permutation:
    """A bijection of {1, ..., k}.  ``images[i-1]`` is the image of i."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        try:
            raw = tuple(images)
            imgs = tuple(map(int, raw))
        except (TypeError, ValueError, OverflowError) as exc:  # None, [[1]], ["a"], [nan], [inf]
            raise ArgumentError(f"permutation images must be integers: {exc}") from exc
        if len(imgs) == 0:
            raise ArgumentError("permutation degree must be at least 1")
        # imgs != raw: some image is not integral (1.7), so int() changed it;
        # True == 1 passes that test, so a boolean image is told by its type;
        # a numpy bool exists only once numpy has loaded
        bools = {bool, getattr(sys.modules.get("numpy"), "bool_", bool)}
        booleans = not bools.isdisjoint(map(type, raw))
        if imgs != raw or booleans or sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ArgumentError(f"not a permutation of 1..{len(imgs)}: {raw}")
        self.images = imgs

    @classmethod
    def _of(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap images known to permute 1..k, skipping the checks of __init__."""
        p = cls.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        """The identity of degree k; a degree over ``_MAX_DEGREE`` is a
        DomainError, refused before any image is built.  Its images are
        built once, as one tuple: a range permutes 1..k by construction."""
        if not _is_integer(k):
            raise ArgumentError(f"permutation degree must be an integer, got {k!r}")
        if k < 1:
            raise ArgumentError("permutation degree must be at least 1")
        if k > _MAX_DEGREE:
            raise DomainError(f"permutation degree {k} is over the bound {_MAX_DEGREE}")
        return cls._of(tuple(range(1, k + 1)))

    @classmethod
    def from_cycles(cls, k: int, *cycles: Iterable[int]) -> "Permutation":
        """Build from disjoint cycles, e.g. ``from_cycles(3, (1, 2, 3))``."""
        imgs = list(cls.identity(k).images)
        for cycle in cycles:
            cyc = _as_list(cycle, "a cycle")
            if not all(map(_is_integer, cyc)):
                raise ArgumentError(f"cycle entries must be integers: {cyc}")
            if any(v < 1 or v > k for v in cyc):
                raise RangeError(f"cycle entry outside 1..{k}: {cyc}")
            if len(set(cyc)) != len(cyc):
                raise ArgumentError(f"repeated entry in cycle {cyc}")
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                imgs[a - 1] = b
        return cls(imgs)

    @classmethod
    def all(cls, k: int) -> Iterator["Permutation"]:
        """All k! permutations of degree k, lexicographic by images."""
        return map(cls._of, itertools.permutations(cls.identity(k).images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not _is_integer(i):
            raise ArgumentError(f"index must be an integer, got {i!r}")
        if not 1 <= i <= self.degree:
            raise RangeError(f"index {i} outside 1..{self.degree}")
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self∘other: first apply ``other``, then ``self``."""
        if other.degree != self.degree:
            raise ArgumentError("degree mismatch in composition")
        return Permutation._of(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation._of(tuple(inv))

    def sign(self) -> int:
        """+1 for even, -1 for odd: the parity of degree minus cycle count."""
        todo, parity = set(self.images), self.degree
        while todo:
            parity -= 1  # one more cycle: follow it from any unvisited point
            j = self.images[todo.pop() - 1]
            while j in todo:
                todo.remove(j)
                j = self.images[j - 1]
        return -1 if parity % 2 else 1

    def matrix(self) -> np.ndarray:
        """Permutation matrix P with P e_j = e_{images[j-1]}.

        Under this column convention P(σ)·P(τ) = P(σ∘τ).
        """
        import numpy as np

        k = self.degree
        mat = np.zeros((k, k))
        mat[self.zero_based(), np.arange(k)] = 1.0
        return mat

    def zero_based(self) -> tuple[int, ...]:
        return tuple(v - 1 for v in self.images)

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"
