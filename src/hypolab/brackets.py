"""Lie-bracket hierarchy, multi-index bookkeeping, and spanning diagnostics.

Builds the Stratonovich-corrected drift, iterated brackets of the coefficient
fields indexed by multi-indices over noise directions {0..m} (0 is the time
direction, whose entries count double in the weight), the Gram matrix of all
brackets up to a weight cap, and grid reports on where those brackets span
the state space.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BracketSizeError,
    ConfigError,
    EigenSolverError,
    EvaluationError,
    InternalInvariantError,
)
from .fieldlang import (
    CoefficientSet,
    Expression,
    VectorField,
    compile_expression_stack,
    derivative,
    jacobian,
    node_count,
    simplify,
)
from .fieldlang.ast import _ZEROS, Binary, Const, _simp_binary

__all__ = [
    "MultiIndex",
    "EMPTY_INDEX",
    "enumerate_indices",
    "stratonovich_drift",
    "lie_bracket",
    "BracketTable",
    "gram_matrix",
    "spanning_value",
    "GridSpec",
    "HormanderReport",
    "check_hormander",
    "ball_sample",
    "derivative_stack",
    "sampled_norms",
    "local_field_bound",
    "coefficient_local_bound",
    "bracket_local_bound",
    "expansion_local_bound",
]

# PSD slack for Gram matrices assembled from outer products; anything below
# this is an internal error, anything in [tol, 0) is rounding and clamps to 0.
_PSD_TOL = -1e-10

_UH_CAVEAT = (
    "empirical surrogate over a finite point set; the infimum over the whole "
    "space cannot be established by sampling"
)


@dataclass(frozen=True, slots=True)
class MultiIndex:
    """Tuple over noise directions {0..m}; the empty tuple is allowed.

    The weight counts time entries (zeros) twice: weight = length + #zeros,
    so length <= weight <= 2*length always holds.
    """

    entries: tuple[int, ...] = ()

    def __post_init__(self):
        for e in self.entries:
            if e < 0:
                raise ConfigError(f"multi-index entries must be >= 0, got {e}")

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def weight(self) -> int:
        return len(self.entries) + sum(1 for e in self.entries if e == 0)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def last(self) -> int:
        if not self.entries:
            raise ConfigError("the empty multi-index has no last entry")
        return self.entries[-1]

    @property
    def prefix(self) -> "MultiIndex":
        if not self.entries:
            raise ConfigError("the empty multi-index has no prefix")
        return MultiIndex(self.entries[:-1])

    def validate_directions(self, m: int) -> None:
        for e in self.entries:
            if e > m:
                raise ConfigError(f"direction {e} exceeds noise count m={m}")

    def __repr__(self) -> str:
        return f"MultiIndex{self.entries!r}"


EMPTY_INDEX = MultiIndex(())


def enumerate_indices(max_weight: int, m: int, by_length: bool = False) -> list[MultiIndex]:
    """All multi-indices with weight <= max_weight, sorted by (length, lex).

    Includes the empty index.  Since every entry contributes at least one to
    the weight, lengths above max_weight cannot occur.  With ``by_length``
    the cap applies to the length instead: every index of length <= max_weight.
    """
    if max_weight < 0:
        raise ConfigError("max_weight must be >= 0")
    if m < 1:
        raise ConfigError("m must be >= 1")
    out = [EMPTY_INDEX]
    for length in range(1, max_weight + 1):
        for entries in itertools.product(range(m + 1), repeat=length):
            mi = MultiIndex(entries)
            if by_length or mi.weight <= max_weight:
                out.append(mi)
    return out


def _is_zero(fld: VectorField) -> bool:
    """Whether every component is a constant 0, of either sign."""
    return all(c in _ZEROS for c in fld.components)


def lie_bracket(v: VectorField, u: VectorField) -> VectorField:
    """Commutator field [v, u] = (Jacobian of u) v - (Jacobian of v) u."""
    if v.dim != u.dim:
        raise ConfigError("bracket of fields with different dimensions")
    zero, negative_zero = _ZEROS
    if _is_zero(v) or _is_zero(u):
        # every product below has a constant-0 factor, and the running sum
        # stays +0.0 (+0.0 + -0.0 and +0.0 - -0.0 are +0.0)
        return VectorField(v.dim, (zero,) * v.dim)
    ju = jacobian(u)
    jv = jacobian(v)
    vs, us = [simplify(c) for c in v.components], [simplify(c) for c in u.components]
    comps = []
    for j in range(v.dim):
        # simplify(0 + Ju[j][0] v[0] - Jv[j][0] u[0] + ...), one operation at a time
        # as simplify folds it: the same node, without the unsimplified sum.  The
        # Jacobian entries are simplify's results already, which it leaves as they are.
        # A product with a constant-0 factor is a constant 0, which leaves the
        # sum as it is unless the sum is -0.0, which adding +0.0 turns to +0.0.
        term: Expression = zero
        for i in range(v.dim):
            for op, jac, w in (("add", ju[j][i], vs[i]), ("sub", jv[j][i], us[i])):
                if (jac in _ZEROS or w in _ZEROS) and term is not negative_zero:
                    continue
                term = _simp_binary(op, term, _simp_binary("mul", jac, w))
        comps.append(term)
    return VectorField(v.dim, tuple(comps))


def stratonovich_drift(coeffs: CoefficientSet) -> VectorField:
    """Drift of the Stratonovich form: b - (1/2) sum_i (Jacobian sigma^i) sigma^i."""
    d = coeffs.d
    comps = []
    for c in range(d):
        term: Expression = coeffs.drift.components[c]
        for col in coeffs.diffusion:
            for j in range(d):  # d sigma^i_c / d x_j from the memoised Jacobian
                half = Binary("mul", Const(0.5), col.components[j])
                term = Binary("sub", term, Binary("mul", half, jacobian(col)[c][j]))
        comps.append(simplify(term))
    return VectorField(d, tuple(comps))


class BracketTable:
    """Memoised iterated brackets over a coefficient set.

    ``direction(0)`` is the Stratonovich drift, ``direction(j)`` for j >= 1
    the j-th diffusion column.  ``bracket(base, alpha)`` returns the iterated
    bracket of ``base`` along ``alpha``: the empty index maps to ``base``
    itself and appending a direction j wraps the previous field in
    [direction(j), . ].  Every bracket is simplified on construction and the
    AST size is capped (bracket expressions can grow combinatorially).

    The Jacobians behind each bracket come from the memoised
    ``fieldlang.jacobian``, and the expression nodes are interned, so a
    field shared by several brackets or bounds is differentiated once.
    """

    def __init__(self, coeffs: CoefficientSet, max_nodes: int = 100_000):
        self.coeffs = coeffs
        self.max_nodes = max_nodes
        self.drift_direction = stratonovich_drift(coeffs)
        self._cache: dict[tuple[VectorField, MultiIndex], VectorField] = {}

    @property
    def d(self) -> int:
        return self.coeffs.d

    @property
    def m(self) -> int:
        return self.coeffs.m

    def direction(self, j: int) -> VectorField:
        if j == 0:
            return self.drift_direction
        if 1 <= j <= self.m:
            return self.coeffs.diffusion[j - 1]
        raise ConfigError(f"direction {j} exceeds noise count m={self.m}")

    def bracket(self, base: VectorField, alpha: MultiIndex) -> VectorField:
        """Iterated bracket of ``base`` along ``alpha`` (memoised)."""
        alpha.validate_directions(self.m)
        key = (base, alpha)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if alpha.is_empty:
            result = base
        else:
            inner = self.bracket(base, alpha.prefix)
            result = lie_bracket(self.direction(alpha.last), inner)
            size = sum(node_count(c) for c in result.components)
            if size > self.max_nodes:
                raise BracketSizeError(
                    f"bracket along {alpha.entries} grew to {size} AST nodes "
                    f"(cap {self.max_nodes}); raise max_nodes or lower the weight"
                )
        self._cache[key] = result
        return result

    def diffusion_bracket(self, k: int, alpha: MultiIndex) -> VectorField:
        """Iterated bracket of the k-th diffusion column, k in 1..m."""
        if not 1 <= k <= self.m:
            raise ConfigError(f"diffusion column index {k} out of range 1..{self.m}")
        return self.bracket(self.coeffs.diffusion[k - 1], alpha)


def _tree_walk(fld: VectorField, pts: np.ndarray, bad: int) -> tuple[np.ndarray, int]:
    """Tree-walk values of ``fld`` at ``pts[:bad]``; ``bad`` drops to the
    first point where evaluation raises."""
    w = np.full(pts.shape, np.nan)
    for i in range(bad):
        try:
            w[i] = fld.evaluate(pts[i])
        except EvaluationError:
            return w, i
    return w, bad


def _gram_stack(pts: np.ndarray, L: int, table: BracketTable) -> np.ndarray:
    """Gram matrices (N, d, d) of the diffusion brackets of weight < L at the
    N points ``pts`` (N, d).

    Each bracket is compiled once and evaluated on all points with floating
    point errors trapped, so an intermediate overflow is caught even when the
    bracket's value is finite.  A bracket that traps or is non-finite is
    redone by tree walk; the first point where any bracket fails then raises
    the tree walk's EvaluationError, naming the offending subexpression.  A
    point whose finite bracket values overflow the sum of outer products
    raises EvaluationError too, unless a failing bracket comes first.
    """
    if L < 1:
        raise ConfigError("L must be >= 1")
    indices = enumerate_indices(L - 1, table.m)
    fields = [table.diffusion_bracket(k, a) for k in range(1, table.m + 1) for a in indices]
    if pts.ndim != 2 or pts.shape[1] != table.d:
        raise ConfigError(f"points have dimension {pts.shape[-1]}, expected {table.d}")
    finite = np.isfinite(pts).all(axis=1)
    bad = len(pts) if finite.all() else int(np.argmin(finite))
    grams = np.zeros((len(pts), table.d, table.d))
    # a bracket that is constant 0 (of either sign) adds nothing: grams starts
    # at +0.0, and adding zeros to +0.0 gives +0.0, so it is left out
    nonzero = [fld for fld in fields if not _is_zero(fld)]
    for fld in nonzero:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                w = compile_expression_stack(fld.components, (fld.dim,))(pts)
            trapped = not np.isfinite(w).all()
        except FloatingPointError:
            trapped = True
        if trapped:
            w, bad = _tree_walk(fld, pts, bad)
        with np.errstate(over="ignore", invalid="ignore"):
            grams += w[:, :, None] * w[:, None, :]
    finite = np.isfinite(grams).all(axis=(1, 2))
    first = len(pts) if finite.all() else int(np.argmin(finite))
    if bad < len(pts) and bad <= first:  # the first failing bracket there raises
        for fld in fields:
            fld.evaluate(pts[bad])
    if first < len(pts):
        raise EvaluationError(
            f"bracket Gram matrix at {pts[first]} is not finite: the sum of "
            "outer products overflows"
        )
    return grams


def _spanning_values(grams: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Gram matrix, clamped to [0, 1].

    The infimum of the quadratic form over unit directions is the smallest
    eigenvalue.  One below the PSD slack means a broken construction and
    raises; small negative rounding clamps to zero.
    """
    try:
        lam = np.linalg.eigvalsh(grams)[:, 0]
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"symmetric eigensolver failed: {exc}") from exc
    below = np.flatnonzero(lam < _PSD_TOL)
    if below.size:
        i = below[0]
        raise InternalInvariantError(
            f"bracket Gram matrix at {pts[i]} has eigenvalue {float(lam[i])} "
            "below PSD tolerance"
        )
    return np.minimum(np.maximum(lam, 0.0), 1.0)


def gram_matrix(x: Sequence[float], L: int, table: BracketTable) -> np.ndarray:
    """Sum of outer products w w^T over all diffusion brackets of weight < L.

    w ranges over the iterated brackets of each diffusion column along every
    multi-index with weight <= L-1, evaluated at x.  The quadratic form
    eta^T M eta is exactly the spanning form of the bracket family at x.
    """
    return _gram_stack(np.asarray(x, dtype=float)[None], L, table)[0]


def spanning_value(x: Sequence[float], L: int, table: BracketTable) -> float:
    """Capped smallest eigenvalue of the bracket Gram matrix at x, in [0, 1]."""
    pts = np.asarray(x, dtype=float)[None]
    return float(_spanning_values(_gram_stack(pts, L, table), pts)[0])


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Axis-aligned product grid used as a sampler spec for spanning checks."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.lows) == len(self.highs) == len(self.counts)):
            raise ConfigError("grid lows/highs/counts must share a length")
        for lo, hi, n in zip(self.lows, self.highs, self.counts):
            if n < 1:
                raise ConfigError("grid counts must be >= 1")
            if hi < lo:
                raise ConfigError("grid high below low")

    @property
    def dim(self) -> int:
        return len(self.lows)

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, hi, n) if n > 1 else np.array([(lo + hi) / 2.0])
            for lo, hi, n in zip(self.lows, self.highs, self.counts)
        ]

    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.column_stack([m.reshape(-1) for m in mesh])


@dataclass(slots=True)
class HormanderReport:
    """Per-point spanning values and the empirical uniform-spanning summary.

    ``in_span_set`` marks points whose capped smallest eigenvalue exceeds a
    small tolerance.  ``inf_value`` over the finite sample is only a
    surrogate for the uniform constant; ``caveat`` says so explicitly.
    ``summary()`` is the ``"summary"`` object of ``hormander.json``; the CLI
    writes its per-point records from the three arrays.
    """

    L: int
    points: np.ndarray
    values: np.ndarray
    in_span_set: np.ndarray
    caveat: str = field(default=_UH_CAVEAT)

    @property
    def inf_value(self) -> float:
        return float(self.values.min())

    @property
    def empirical_uniform(self) -> bool:
        return bool(self.in_span_set.all())

    @property
    def level_candidate(self) -> int | None:
        return self.L if self.empirical_uniform else None

    def summary(self) -> dict:
        return {
            "inf_V_L": self.inf_value,
            "L0_candidate": self.level_candidate,
            "empirical_UH": self.empirical_uniform,
            "C_L0_estimate": self.inf_value,
            "caveat": self.caveat,
        }


def check_hormander(
    points: Iterable[Sequence[float]] | GridSpec,
    L: int,
    table: BracketTable,
    membership_tol: float = 1e-12,
) -> HormanderReport:
    """Evaluate the spanning value at every point and summarise the sample."""
    pts = points.points() if isinstance(points, GridSpec) else np.atleast_2d(
        np.asarray(list(points), dtype=float)
    )
    if pts.size == 0:
        raise ConfigError("empty point set for spanning check")
    values = _spanning_values(_gram_stack(pts, L, table), pts)
    return HormanderReport(L, pts, values, values > membership_tol)


# ---------------------------------------------------------------------------
# Local sup-norm bounds over the closed ball B(x, radius), approximated on a
# fixed sample.  The centre and the axis-aligned boundary points come first,
# so interval suprema in low dimension are hit exactly.  The interior points
# are uniform in the ball: the first d coordinates of a normalised
# (d + 2)-dimensional Gaussian vector (Voelker, Gosmann and Stewart 2017),
# drawn from a fixed-seed generator made for each call, so a bound never moves
# the engine's Philox.  A sample of a given (dim, count) is a prefix of every
# larger one, so enlarging it can only increase the reported bound.

_BALL_SEED = 0


def ball_sample(center: Sequence[float], radius: float, n: int) -> np.ndarray:
    if not 0.0 < radius < math.inf:
        raise ConfigError(f"ball radius must be positive and finite, got {radius}")
    if n < 0:
        raise ConfigError(f"ball sample size must be >= 0, got {n}")
    center = np.asarray(center, dtype=float)
    d = center.size
    gauss = np.random.default_rng(_BALL_SEED).standard_normal((n, d + 2))
    pts = center + radius * (gauss / np.linalg.norm(gauss, axis=1, keepdims=True))[:, :d]
    offsets = radius * np.eye(d)
    fixed = np.stack([center + offsets, center - offsets], axis=1).reshape(2 * d, d)
    return np.vstack([center, fixed, pts])


def derivative_stack(fld: VectorField, order: int) -> list[list[Expression]]:
    """The field's components, then each derivative tensor up to ``order``, row-major."""
    groups = [list(fld.components)]
    for _ in range(order):
        groups.append([derivative(e, i) for e in groups[-1] for i in range(1, fld.dim + 1)])
    return groups


def sampled_norms(groups: Sequence[Sequence[Expression]], pts: np.ndarray) -> list[np.ndarray]:
    """The Euclidean (Frobenius) norm of each group of expressions at the N
    points ``pts`` (N, d), one (N,) array per group.

    The distinct expressions of all groups, in first-seen order, are compiled
    into one stack and evaluated once, floating point errors ignored.  Each
    group adds its squares left to right in its own order, with one
    ``np.add.reduce`` over the rows of its squares: numpy adds an outer axis
    row by row, but a contiguous one (as the single row of one point is) 8 or
    more pairwise, so one point's squares are added a row at a time.  A
    constant 0 is left out: its square is +0.0, and a sum of squares, never
    -0.0, plus +0.0 is the same sum.  A non-finite value or an overflowing
    sum gives a non-finite norm, which the caller judges.
    """
    rows = [[e for e in g if e not in _ZEROS] for g in groups]
    distinct = {id(e): e for row in rows for e in row}  # nodes are interned: ids are keys
    column = dict(zip(distinct, range(len(distinct))))
    with np.errstate(all="ignore"):
        stack = compile_expression_stack(tuple(distinct.values()), (len(distinct),))(pts)
        squares = np.ascontiguousarray(np.square(stack).T)  # a row per expression
        if len(pts) == 1:
            return [np.sqrt(sum((squares[column[id(e)]] for e in row), np.zeros(1)))
                    for row in rows]
        return [np.sqrt(np.add.reduce(squares[[column[id(e)] for e in row]], axis=0))
                for row in rows]


def local_field_bound(
    fields: Sequence[VectorField],
    x: Sequence[float],
    radius: float = 1.0,
    order: int = 0,
    n_ball: int = 512,
) -> tuple[float, int]:
    """Max over the ball sample of the Euclidean/Frobenius norms of each field
    and its derivative tensors up to ``order`` (0, 1, or 2).

    Returns (bound, number of sample points).  Monotone non-decreasing in
    ``n_ball``.  A non-finite value or norm inside the ball raises.

    The bound is the largest value on the sample (by default the 2d + 1
    fixed points and 512 interior ones), so it is a lower estimate of the
    local sup-norm whenever the sup lies off the fixed points: for
    |x1 x2 x3 x4 x5| in the unit 5-ball it reads 21-38% low.

    Repeated fields count once; ``sampled_norms`` evaluates all their
    derivative groups from one stack.
    """
    if order not in (0, 1, 2):
        raise ConfigError("derivative order must be 0, 1, or 2")
    pts = ball_sample(x, radius, n_ball)
    owners = [(f, group) for f in dict.fromkeys(fields) for group in derivative_stack(f, order)]
    norms = sampled_norms([group for _, group in owners], pts)
    return _ball_max([fld for fld, _ in owners], norms, x, radius), len(pts)


def _ball_max(fields, norms, x, radius) -> float:
    """The largest of the fields' ``norms``; the first field with one not finite raises."""
    for fld, vals in zip(fields, norms):
        if not np.isfinite(vals).all():
            raise EvaluationError(
                f"field '{fld.describe()}' is non-finite inside the ball of radius "
                f"{radius} around {np.asarray(x).tolist()}"
            )
    return max((float(vals.max()) for vals in norms), default=0.0)


def coefficient_local_bound(coeffs: CoefficientSet, x: Sequence[float]) -> float:
    """sup over the unit ball around x of max(Frobenius norm of sigma, |b|).

    This is the zeroth-order variant used by the density-envelope validity
    region.  sigma's squares are summed row-major in (i, j).
    """
    sigma = [col.components[i] for i in range(coeffs.d) for col in coeffs.diffusion]
    fields = (coeffs.drift, *coeffs.diffusion)
    *norms, frobenius = sampled_norms([f.components for f in fields] + [sigma],
                                      ball_sample(x, 1.0, 512))
    _ball_max(fields, norms, x, 1.0)
    if not np.isfinite(frobenius).all():
        raise EvaluationError(f"the Frobenius norm of sigma overflows inside the unit ball "
                              f"around {np.asarray(x).tolist()}")
    return max(float(norms[0].max()), float(frobenius.max()))


def bracket_local_bound(table: BracketTable, x: Sequence[float], L: int) -> float:
    """Second-order sup-norm bound over the unit ball around x of all
    diffusion brackets of length (not weight) <= L+1.

    Variant feeding the eigenvalue-tail envelope fits.
    """
    fields = []
    for k in range(1, table.m + 1):
        for alpha in enumerate_indices(L + 1, table.m, by_length=True):
            fields.append(table.diffusion_bracket(k, alpha))
    return local_field_bound(fields, x, order=2)[0]


def expansion_local_bound(
    table: BracketTable, target: VectorField, x: Sequence[float], L: int
) -> float:
    """max over the unit ball around x of second-order norms of all
    directions and zeroth-order norms of the iterated brackets of ``target``
    up to length L+1.

    Variant feeding remainder-tail envelope fits.
    """
    directions = [table.direction(j) for j in range(table.m + 1)]
    dir_bound, _ = local_field_bound(directions, x, order=2)
    indices = enumerate_indices(L + 1, table.m, by_length=True)
    targets = [table.bracket(target, alpha) for alpha in indices]
    tgt_bound, _ = local_field_bound(targets, x, order=0)
    return max(dir_bound, tgt_bound)
