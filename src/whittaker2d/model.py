"""Domain types for the triangular particle system.

The particle array is a triangle indexed by (n, k) with 1 <= k <= n <= N.
Particle (n, k) lives between two particles on the level above: (n-1, k-1)
bounds it from above and (n-1, k) bounds it from below,

    T[n, k] <= T[n-1, k-1]   (upper barrier, exists for k >= 2)
    T[n, k] >= T[n-1, k]     (lower barrier, exists for k <= n-1)

which is the interlacing order the dynamics preserve in the large-scaling
limit.  All containers here are immutable after construction and all
operations are pure, so everything is safe to share across workers.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "TriIndex",
    "TimeGrid",
    "SamplePath",
    "TriangularConfiguration",
    "PathBundle",
    "ModelConfig",
    "InterlaceBounds",
    "InterlaceReport",
    "Topology",
    "tri_indices",
    "tri_offset",
    "tri_size",
    "interlacing_defect",
    "bundle_to_csv",
    "bundle_from_csv",
    "configuration_to_csv",
    "configuration_from_csv",
]


class TriIndex(NamedTuple):
    """Index (n, k) into the triangular array, 1 <= k <= n."""

    n: int
    k: int

    def validate(self, N: int) -> None:
        if not (1 <= self.k <= self.n <= N):
            raise ValueError(f"invalid triangular index {self} for N={N}")


def tri_size(N: int) -> int:
    """Number of particles in a triangle of N levels."""
    return N * (N + 1) // 2


def tri_offset(n: int, k: int) -> int:
    """Position of (n, k) in level-major (row by row) flat order."""
    return n * (n - 1) // 2 + (k - 1)


def tri_indices(N: int) -> list[TriIndex]:
    """All indices in level-major order: (1,1), (2,1), (2,2), (3,1), ..."""
    return [TriIndex(n, k) for n in range(1, N + 1) for k in range(1, n + 1)]


@dataclass(frozen=True, eq=False)
class Topology:
    """Barrier graph of a particle system, one row per particle.

    lower[p] is the row bounding row p from below (it pushes p up) and
    upper[p] the row bounding it from above (it pushes p down); -1 means
    none.  relations lists every order constraint T[hi] >= T[lo] as a row
    pair (hi, lo): for each row in order, (upper[p], p) then (p, lower[p]).
    """

    lower: np.ndarray
    upper: np.ndarray
    relations: tuple = field(init=False)

    def __post_init__(self):
        lower = np.array(self.lower, dtype=np.intp)
        upper = np.array(self.upper, dtype=np.intp)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1d and of equal length")
        size = lower.size
        rows = np.concatenate([lower, upper])
        if np.any((rows < -1) | (rows >= size)):
            raise ValueError("barrier rows must be -1 or a topology row")
        lower.flags.writeable = False
        upper.flags.writeable = False
        rels = []
        for p in range(size):
            if upper[p] >= 0:
                rels.append((int(upper[p]), p))
            if lower[p] >= 0:
                rels.append((p, int(lower[p])))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "relations", tuple(rels))

    @property
    def size(self) -> int:
        return self.lower.size

    @staticmethod
    @functools.cache
    def triangle(N: int) -> "Topology":
        """The N-level triangle, rows in level-major order: (n, k) is
        bounded below by (n-1, k) when k < n and above by (n-1, k-1) when
        k > 1."""
        idx = tri_indices(N)
        return Topology(
            [tri_offset(n - 1, k) if k < n else -1 for n, k in idx],
            [tri_offset(n - 1, k - 1) if k > 1 else -1 for n, k in idx],
        )

    def restrict(self, rows) -> "Topology":
        """Sub-graph on the given rows, renumbered in the order given;
        barriers outside the kept rows become -1."""
        rows = list(rows)
        new = {old: i for i, old in enumerate(rows)}
        return Topology(
            [new.get(int(self.lower[r]), -1) for r in rows],
            [new.get(int(self.upper[r]), -1) for r in rows],
        )


def _check_levels(N: int) -> None:
    if N < 1:
        raise ValueError(f"need at least one level, got N={N}")


def _count(name: str, value) -> int:
    """value as a plain int, read through operator.index; a ValueError
    naming the argument where value is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of M+1 points on [a, b] with 0 <= a < b <= 1."""

    a: float = 0.0
    b: float = 1.0
    steps: int = 1000

    def __post_init__(self):
        if not (0.0 <= self.a < self.b <= 1.0):
            raise ValueError(f"need 0 <= a < b <= 1, got [{self.a}, {self.b}]")
        if _count("steps", self.steps) < 1:
            raise ValueError(f"steps must be an int >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return (self.b - self.a) / self.steps

    @property
    def times(self) -> np.ndarray:
        return self.a + self.dt * np.arange(self.steps + 1)

    @property
    def npoints(self) -> int:
        return self.steps + 1

    @staticmethod
    def from_dt(a: float, b: float, dt: float) -> "TimeGrid":
        """The grid on [a, b] with step dt, which must be positive, finite
        and divide b - a to a relative 1e-9."""
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        ratio = (b - a) / dt  # inf for a subnormal dt, which fails below
        steps = round(ratio) if np.isfinite(ratio) else 0
        if steps < 1 or abs(steps * dt - (b - a)) > 1e-9 * max(1.0, b - a):
            raise ValueError(f"dt={dt} does not divide [{a}, {b}]")
        return TimeGrid(a, b, steps)


@dataclass(frozen=True)
class SamplePath:
    """Values of a single particle (or barrier) on a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = _frozen(self.values)
        if v.shape != (self.grid.npoints,):
            raise ValueError(
                f"values shape {v.shape} does not match grid with "
                f"{self.grid.npoints} points"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("sample path contains non-finite values")
        object.__setattr__(self, "values", v)

    @staticmethod
    def constant(grid: TimeGrid, value: float) -> "SamplePath":
        return SamplePath(grid, np.full(grid.npoints, float(value)))

    @staticmethod
    def from_function(grid: TimeGrid, f) -> "SamplePath":
        return SamplePath(grid, np.asarray([f(t) for t in grid.times], float))


@dataclass(frozen=True)
class TriangularConfiguration:
    """The particle array at a fixed time, flat in level-major order."""

    N: int
    entries: np.ndarray

    def __post_init__(self):
        _check_levels(self.N)
        e = _frozen(self.entries)
        if e.shape != (tri_size(self.N),):
            raise ValueError(
                f"expected {tri_size(self.N)} entries for N={self.N}, "
                f"got shape {e.shape}"
            )
        if not np.all(np.isfinite(e)):
            raise ValueError("configuration contains non-finite entries")
        object.__setattr__(self, "entries", e)

    @staticmethod
    def zeros(N: int) -> "TriangularConfiguration":
        return TriangularConfiguration(N, np.zeros(tri_size(N)))


@dataclass(frozen=True)
class PathBundle:
    """One sample path per triangular index, all on the same grid.

    values has shape (P, M+1) with P = N(N+1)/2 in level-major order.
    """

    N: int
    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        _check_levels(self.N)
        v = _frozen(self.values)
        if v.shape != (tri_size(self.N), self.grid.npoints):
            raise ValueError(
                f"expected values shape ({tri_size(self.N)}, "
                f"{self.grid.npoints}), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("path bundle contains non-finite values")
        object.__setattr__(self, "values", v)

    def path(self, n: int, k: int) -> SamplePath:
        TriIndex(n, k).validate(self.N)
        return SamplePath(self.grid, self.values[tri_offset(n, k)])

    def at_time(self, i: int) -> TriangularConfiguration:
        return TriangularConfiguration(self.N, self.values[:, i])

    @property
    def initial(self) -> TriangularConfiguration:
        return self.at_time(0)

    @staticmethod
    def constant(
        N: int, grid: TimeGrid, config: TriangularConfiguration
    ) -> "PathBundle":
        vals = np.repeat(config.entries[:, None], grid.npoints, axis=1)
        return PathBundle(N, grid, vals)

    @staticmethod
    def linear(
        N: int,
        grid: TimeGrid,
        start: TriangularConfiguration,
        end: TriangularConfiguration,
    ) -> "PathBundle":
        w = np.linspace(0.0, 1.0, grid.npoints)
        vals = start.entries[:, None] * (1 - w) + end.entries[:, None] * w
        return PathBundle(N, grid, vals)


@dataclass(frozen=True)
class ModelConfig:
    """Static description of one triangular system instance.

    gamma is the scaling parameter: noise enters as dW / sqrt(gamma) and the
    interaction exponents are multiplied by gamma.  drift_cap, when set,
    overrides the default taming cap exp(0.25 * gamma).
    """

    N: int
    gamma: float
    initial: TriangularConfiguration
    drift_cap: float | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be positive and finite")
        if self.initial.N != self.N:
            raise ValueError("initial configuration N does not match config N")
        cap = self.drift_cap
        if cap is not None and not cap > 0:  # NaN fails too
            raise ValueError(f"drift_cap must be positive, got {cap}")
        report = validate_initial_entries(self.N, self.initial.entries)
        if report:
            raise ValueError(f"initial configuration not interlaced: {report}")


@dataclass(frozen=True)
class InterlaceBounds:
    """Margins f_n, g_n for the almost-interlaced events, with g = 2 f.

    At level n the margins grow geometrically: g_n = 4**(n-1) * g.
    """

    f: float

    def __post_init__(self):
        if not self.f > 0:  # NaN fails too
            raise ValueError(f"margins must be positive, got f={self.f}")

    @property
    def g(self) -> float:
        return 2.0 * self.f

    @staticmethod
    def from_gamma(gamma: float) -> "InterlaceBounds":
        return InterlaceBounds(f=1.0 / np.sqrt(gamma))

    def f_level(self, n: int) -> float:
        return 4 ** (n - 1) * self.f

    def g_level(self, n: int) -> float:
        return 4 ** (n - 1) * self.g


# ---------------------------------------------------------------------------
# interlacing checks


def validate_initial_entries(N: int, entries: np.ndarray) -> list:
    """Violated relations as (upper_index, lower_index, signed_defect).

    The defect is T[hi] - T[lo]; negative means the relation is violated.
    Tolerance is exactly zero: the order constraints are non-strict.
    """
    idx = tri_indices(N)
    violations = []
    for hi, lo in Topology.triangle(N).relations:
        defect = entries[hi] - entries[lo]
        if defect < 0:
            violations.append((idx[hi], idx[lo], float(defect)))
    return violations


@dataclass(frozen=True)
class InterlaceReport:
    """Worst grid defects and event flags for a path bundle.

    defects maps each ordered relation (hi, lo) to min over the grid of
    T[hi] - T[lo].  Event flags follow the almost-interlaced events: A_n uses
    margin f_n on the level-adjacent relations, B_n uses margin g_n on the
    same relations, C_n uses margin g_n on same-level consecutive pairs
    T[n+1,k] - T[n+1,k+1].
    """

    defects: dict
    level_defects: dict
    same_level_defects: dict
    a_flags: dict
    b_flags: dict
    c_flags: dict

    @property
    def all_hold(self) -> bool:
        return all(self.a_flags.values()) and all(self.b_flags.values()) and all(
            self.c_flags.values()
        )


def interlacing_defect(
    bundle: PathBundle, margin: float | InterlaceBounds
) -> InterlaceReport:
    """Scan the whole grid for the worst defect of every order relation.

    margin may be a scalar (used for every relation at every level) or
    InterlaceBounds (level-dependent f_n / g_n margins).
    """
    N = bundle.N
    vals = bundle.values
    idx = tri_indices(N)
    defects = {}
    for hi, lo in Topology.triangle(N).relations:
        defects[(idx[hi], idx[lo])] = float(np.min(vals[hi] - vals[lo]))

    # worst level-adjacent defect per level pair (n vs n+1)
    level_defects: dict[int, float] = {}
    for (hi, lo), d in defects.items():
        n = min(hi.n, lo.n)  # the upper level of the pair
        level_defects[n] = min(level_defects.get(n, np.inf), d)

    # same-level spacing defects: T[n+1,k] - T[n+1,k+1]
    same_level_defects: dict[int, float] = {}
    for n in range(1, N):
        worst = np.inf
        for k in range(1, n + 1):
            d = float(
                np.min(
                    vals[tri_offset(n + 1, k)] - vals[tri_offset(n + 1, k + 1)]
                )
            )
            worst = min(worst, d)
        same_level_defects[n] = worst

    if isinstance(margin, InterlaceBounds):
        f_of = margin.f_level
        g_of = margin.g_level
    else:
        f_of = g_of = lambda n: float(margin)  # noqa: E731

    a_flags = {n: level_defects[n] >= -f_of(n) for n in level_defects}
    b_flags = {n: level_defects[n] >= -g_of(n) for n in level_defects}
    c_flags = {n: same_level_defects[n] >= -g_of(n) for n in same_level_defects}
    return InterlaceReport(
        defects, level_defects, same_level_defects, a_flags, b_flags, c_flags
    )


# ---------------------------------------------------------------------------
# CSV schema: header `t,T_1_1,T_2_1,T_2_2,...` level-major, one row per grid
# point, full float precision so round trips are exact.


def _bundle_header(N: int) -> str:
    cols = ["t"] + [f"T_{n}_{k}" for n, k in tri_indices(N)]
    return ",".join(cols)


def bundle_to_csv(f, bundle: PathBundle, comments: list[str] | None = None) -> None:
    """Write a bundle to a text file object.  Comment lines start with '#'."""
    _write_csv(f, _bundle_header(bundle.N),
               _column_rows([bundle.grid.times, *bundle.values]),
               comments or ())


# the rows that _write_csv formats, and _column_rows converts, at a time
_CSV_ROWS = 1024


def _column_rows(cols):
    """The rows of the equal-length 1-d arrays cols, as tuples of Python
    scalars, converted _CSV_ROWS rows at a time, so that a table is never
    held as Python objects whole."""
    for i in range(0, len(cols[0]), _CSV_ROWS):
        yield from zip(*(c[i : i + _CSV_ROWS].tolist() for c in cols))


def _write_csv(f, header: str, rows, comments=(), footer=()) -> None:
    """Write to text file f the `# ` comment lines, the header, each row as
    its values' str joined by commas (one %-format for each _CSV_ROWS rows
    of the iterable rows), then the `# ` footer lines.  Rows hold Python
    scalars, one per header field, so a float is written as its repr:
    exact on reread."""
    ncols = header.count(",") + 1
    line = "%s" + ",%s" * (ncols - 1) + "\n"
    f.write("".join(f"# {c}\n" for c in comments) + header + "\n")
    rows = iter(rows)
    while block := tuple(itertools.chain.from_iterable(
            itertools.islice(rows, _CSV_ROWS))):
        f.write(line * (len(block) // ncols) % block)
    f.write("".join(f"# {c}\n" for c in footer))


_floats = functools.partial(np.loadtxt, delimiter=",", comments=None, ndmin=2)


def _where(f) -> str:
    """`<name>: `, the prefix that names text file f in a message, if f has
    a name."""
    return "" if getattr(f, "name", None) is None else f"{f.name}: "


def _float_rows(f, ncols: int | None = None, skip=("#",)):
    """Header fields (None if ncols is given) and (n, ncols) float rows of
    CSV text f, skipping blank lines and those starting with a prefix in
    skip, read in one call by numpy's C reader (_floats): each field as by
    float(), bit for bit, except that `1_000` and non-ASCII digits are not
    numbers.  A malformed row raises ValueError naming f's file, if it has
    a name, and the 1-based line."""
    lines = [ln.strip() for ln in f]
    rows = [ln for ln in lines if ln and not ln.startswith(skip)]
    header = None if ncols else (rows.pop(0).split(",") if rows else [])
    ncols = ncols or len(header)
    with contextlib.suppress(ValueError):
        data = _floats(rows) if rows else np.empty((0, ncols))
        if data.shape[1] == ncols:
            return header, data
    # a malformed row: find the first, row by row
    numbered = [(i, ln) for i, ln in enumerate(lines, 1)
                if ln and not ln.startswith(skip)]
    for i, ln in numbered[header is not None :]:
        fields = ln.split(",")
        try:
            if len(fields) != ncols:
                raise ValueError(f"{len(fields)} fields, expected {ncols}")
            with contextlib.suppress(ValueError):
                _floats([ln])
                continue
            for x in fields:  # the row's first field that is not a number
                with contextlib.suppress(ValueError):
                    if x.strip():  # else the C reader skips it as a blank line
                        _floats([x])
                        continue
                raise ValueError(f"could not convert string to float: {x!r}")
        except ValueError as e:
            raise ValueError(f"{_where(f)}line {i}: {e}") from None


def bundle_from_csv(f) -> PathBundle:
    """Read a bundle written by bundle_to_csv; skips blank and # lines."""
    header, data = _float_rows(f)
    if not len(data):
        raise ValueError("empty bundle CSV")
    P = len(header) - 1
    # invert P = N(N+1)/2
    N = int((np.sqrt(8 * P + 1) - 1) / 2)
    if tri_size(N) != P:
        raise ValueError(f"{P} particle columns is not a triangular count")
    expected = _bundle_header(N).split(",")
    if header != expected:
        raise ValueError(f"unexpected header {header}, want {expected}")
    return PathBundle(N, _grid_of(f, data[:, 0]), data[:, 1:].T)


def _grid_of(f, t) -> TimeGrid:
    """The uniform grid whose times are t, read from CSV text f; a
    ValueError naming f's file, if it has a name, where t has fewer than
    two times or unequal steps."""
    if len(t) < 2:
        raise ValueError(f"{_where(f)}need at least two rows")
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise ValueError(f"{_where(f)}grid is not uniform")
    return TimeGrid(float(t[0]), float(t[-1]), len(t) - 1)


def configuration_to_csv(f, config: TriangularConfiguration) -> None:
    header = _bundle_header(config.N).removeprefix("t,")
    _write_csv(f, header, [config.entries.tolist()])


def configuration_from_csv(f) -> TriangularConfiguration:
    header, rows = _float_rows(f)
    if len(rows) != 1:
        raise ValueError("configuration CSV needs a header and one data row, "
                         f"found {len(rows)} data rows")
    P = len(header)
    N = int((np.sqrt(8 * P + 1) - 1) / 2)
    if tri_size(N) != P:
        raise ValueError(f"{P} columns is not a triangular count")
    expected = _bundle_header(N).removeprefix("t,").split(",")
    if header != expected:
        raise ValueError(f"unexpected header {header}, want {expected}")
    return TriangularConfiguration(N, rows[0])
