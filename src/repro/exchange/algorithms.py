"""Exchange algorithm descriptors and the grid/coordinate math (paper §4.4.2).

The k-level exchange projects partition and worker IDs onto a k-dimensional
grid (mixed-radix; the paper's H_s = x -> (x % s, x // s) is the 2-level
case) and runs BasicGroupExchange once per dimension: level l exchanges data
among the workers that agree on every coordinate except l, routing each
record to the group member whose level-l coordinate equals the level-l
coordinate of the record's partition ID. After all levels, worker ID equals
partition ID.

``expected_requests`` gives the *exact* per-level request counts for our
implementation; tests assert ledger equality against them and their agreement
with Table 2's closed forms for square worker counts.
"""
from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class ExchangeSpec:
    """Configuration of one exchange algorithm variant."""

    levels: int = 1
    write_combining: bool = False
    #: wc offsets channel: "filename" (offsets in the key, discovered via
    #: LIST) or "sidecar" (separate offsets object, doubling reads).
    offsets_mode: str = "filename"
    n_buckets: int = 10

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.offsets_mode not in ("filename", "sidecar"):
            raise ValueError(f"bad offsets_mode {self.offsets_mode!r}")

    @property
    def label(self) -> str:
        """Paper-style label: 1l, 2l-wc, 3l-wc, ..."""
        return f"{self.levels}l" + ("-wc" if self.write_combining else "")


def _closest_divisor(n: int, target: float) -> int:
    """Divisor of n closest to target (ties toward the smaller)."""
    best = 1
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            for cand in (d, n // d):
                if abs(cand - target) < abs(best - target):
                    best = cand
    return best


def grid_dims(n_workers: int, levels: int) -> tuple[int, ...]:
    """Factor P into ``levels`` grid side lengths, each as close to
    P^(1/levels) as divisibility allows (s = sqrt(P) "minimizes the sum").
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    dims = []
    rest = n_workers
    for lvl in range(levels, 1, -1):
        d = _closest_divisor(rest, rest ** (1.0 / lvl))
        dims.append(d)
        rest //= d
    dims.append(rest)
    return tuple(dims)


def coords(x: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Mixed-radix projection (generalised H_s; 2-level: (x % s, x // s))."""
    out = []
    for d in dims:
        out.append(x % d)
        x //= d
    return tuple(out)


def from_coords(cs, dims) -> int:
    x, mul = 0, 1
    for c, d in zip(cs, dims):
        if not 0 <= c < d:
            raise ValueError(f"coordinate {c} out of range for dim {d}")
        x += c * mul
        mul *= d
    return x


def level_coord(x, dims: tuple[int, ...], level: int):
    """The ``level``-th coordinate of an ID or numpy array of IDs (the routing target)."""
    return (x // math.prod(dims[:level])) % dims[level]


def group_id(p: int, dims: tuple[int, ...], level: int) -> int:
    """Linear index of p's level-``level`` group: its coordinates with the
    ``level`` dimension removed. Workers in the same group exchange with
    each other at this level."""
    cs = list(coords(p, dims))
    gid, mul = 0, 1
    for i, (c, d) in enumerate(zip(cs, dims)):
        if i == level:
            continue
        gid += c * mul
        mul *= d
    return gid


def group_members(p: int, dims: tuple[int, ...], level: int) -> list[int]:
    """All workers sharing p's group at this level, ordered by coordinate."""
    cs = list(coords(p, dims))
    out = []
    for v in range(dims[level]):
        cs2 = list(cs)
        cs2[level] = v
        out.append(from_coords(cs2, dims))
    return out


def peer_with_coord(p: int, dims: tuple[int, ...], level: int, coord: int) -> int:
    """The member of p's level group whose level coordinate is ``coord``."""
    cs = list(coords(p, dims))
    cs[level] = coord
    return from_coords(cs, dims)


def expected_requests(n_workers: int, spec: ExchangeSpec) -> dict:
    """Exact request counts our runner issues, per level and total.

    Per level l with group size d_l: every worker reads one (part of a) file
    per sender in its group and LISTs once for discovery/readiness (except in
    sidecar mode, where offsets come from a second GET per sender).
    """
    dims = grid_dims(n_workers, spec.levels)
    per_level = []
    for d in dims:
        if spec.write_combining:
            if spec.offsets_mode == "filename":
                lvl = dict(puts=n_workers, gets=n_workers * d, lists=n_workers)
            else:  # sidecar: data file + offsets file; 2 gets per sender
                lvl = dict(puts=2 * n_workers, gets=2 * n_workers * d, lists=0)
        else:
            lvl = dict(puts=n_workers * d, gets=n_workers * d, lists=n_workers)
        per_level.append(lvl)
    total = {k: sum(lvl[k] for lvl in per_level) for k in ("puts", "gets", "lists")}
    return {"dims": dims, "per_level": per_level, **total, "scans": spec.levels}
