"""Labelled tensors: the atoms of tensor networks (paper Sec. IV).

A :class:`Tensor` is a multi-dimensional array of complex numbers whose axes
carry string labels.  Contraction of two tensors sums over their shared
labels — exactly the paper's Example 3 (matrix product as contraction of two
rank-2 tensors over the shared index ``k``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np


class Tensor:
    """A complex tensor with named indices."""

    __slots__ = ("data", "indices")

    def __init__(self, data: np.ndarray, indices: Sequence[str]) -> None:
        data = np.asarray(data, dtype=np.complex128)
        indices = tuple(indices)
        if data.ndim != len(indices):
            raise ValueError(
                f"tensor of rank {data.ndim} needs {data.ndim} indices, "
                f"got {len(indices)}"
            )
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate indices {indices}")
        self.data = data
        self.indices = indices

    @property
    def rank(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        """Number of stored complex entries."""
        return int(self.data.size)

    def relabeled(self, mapping: Dict[str, str]) -> "Tensor":
        return Tensor(self.data, [mapping.get(i, i) for i in self.indices])

    def conj(self) -> "Tensor":
        return Tensor(self.data.conj(), self.indices)

    def slice_index(self, index: str, value: int) -> "Tensor":
        """Fix ``index`` to ``value``: one rank lower, that axis dropped.

        The building block of bond slicing: fixing a bond on both of its
        holders and summing the sliced contractions over the bond's
        values reproduces the full contraction, with every intermediate
        smaller by the bond dimension.
        """
        axis = self.indices.index(index)
        data = np.take(self.data, int(value), axis=axis)
        remaining = self.indices[:axis] + self.indices[axis + 1 :]
        return Tensor(data, remaining)

    def transpose_to(self, order: Sequence[str]) -> "Tensor":
        """Reorder axes to match ``order`` (a permutation of the indices)."""
        if set(order) != set(self.indices) or len(order) != len(self.indices):
            raise ValueError(f"{order} is not a permutation of {self.indices}")
        perm = [self.indices.index(i) for i in order]
        return Tensor(np.transpose(self.data, perm), order)

    def scalar(self) -> complex:
        if self.rank != 0:
            raise ValueError(f"tensor of rank {self.rank} is not a scalar")
        return complex(self.data)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.data.shape) or "scalar"
        return f"Tensor({list(self.indices)}, {dims})"


def contract(a: Tensor, b: Tensor) -> Tensor:
    """Contract two tensors over all shared indices.

    Indices present in both tensors are summed over; the result carries the
    remaining indices of ``a`` followed by those of ``b``.
    """
    shared = [i for i in a.indices if i in b.indices]
    axes_a = [a.indices.index(i) for i in shared]
    axes_b = [b.indices.index(i) for i in shared]
    data = np.tensordot(a.data, b.data, axes=(axes_a, axes_b))
    remaining = [i for i in a.indices if i not in shared] + [
        i for i in b.indices if i not in shared
    ]
    return Tensor(data, remaining)


def contraction_result_indices(
    a_indices: Iterable[str], b_indices: Iterable[str]
) -> List[str]:
    """Index labels of ``contract(a, b)`` without doing any arithmetic."""
    a_indices = list(a_indices)
    b_set = set(b_indices)
    a_set = set(a_indices)
    return [i for i in a_indices if i not in b_set] + [
        i for i in b_indices if i not in a_set
    ]


def outer(a: Tensor, b: Tensor) -> Tensor:
    """Tensor (outer) product; the operands must share no indices."""
    if set(a.indices) & set(b.indices):
        raise ValueError("outer product operands share indices")
    return contract(a, b)
