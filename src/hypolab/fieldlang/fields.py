"""Vector fields and coefficient sets built from DSL expressions."""
from __future__ import annotations

import itertools
import linecache
import operator
import re
import weakref
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError
from .ast import (
    Binary,
    Const,
    Expression,
    Power,
    Unary,
    Var,
    _dag,
    _literal,
    _np_lines,
    derivative,
    evaluate,
    to_text,
)
from .parser import parse_expression

__all__ = [
    "VectorField",
    "CoefficientSet",
    "Kernel",
    "jacobian",
    "compile_field",
    "compile_expression_stack",
    "compile_step_kernel",
    "step_kernel_c",
    "compile_jacobian",
    "compile_diffusion",
]


@dataclass(frozen=True, slots=True)
class VectorField:
    """A length-``dim`` tuple of component expressions."""

    dim: int
    components: tuple[Expression, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"field dimension must be >= 1, got {self.dim}")
        if len(self.components) != self.dim:
            raise ConfigError(
                f"field has {len(self.components)} components, expected {self.dim}"
            )

    @classmethod
    def from_text(cls, text: str, dim: int) -> "VectorField":
        """Parse ``dim`` comma-separated component expressions."""
        parts = [p for p in text.split(",")]
        if len(parts) != dim:
            raise ConfigError(
                f"expected {dim} comma-separated components, got {len(parts)}: {text!r}"
            )
        return cls(dim, tuple(parse_expression(p, dim) for p in parts))

    def evaluate(self, point: Sequence[float]) -> np.ndarray:
        return np.array([evaluate(c, point) for c in self.components], dtype=float)

    def describe(self) -> str:
        return ", ".join(to_text(c) for c in self.components)


@dataclass(frozen=True, slots=True)
class CoefficientSet:
    """Drift and diffusion columns of an SDE in dimension ``d`` with ``m`` noises."""

    d: int
    m: int
    drift: VectorField
    diffusion: tuple[VectorField, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"need at least one diffusion column, got m={self.m}")
        if self.drift.dim != self.d:
            raise ConfigError("drift dimension does not match d")
        if len(self.diffusion) != self.m:
            raise ConfigError(
                f"expected {self.m} diffusion columns, got {len(self.diffusion)}"
            )
        for j, col in enumerate(self.diffusion, start=1):
            if col.dim != self.d:
                raise ConfigError(f"diffusion column {j} dimension does not match d")

    @classmethod
    def from_text(cls, d: int, m: int, drift: str, sigma_columns: Sequence[str]) -> "CoefficientSet":
        cols = tuple(VectorField.from_text(s, d) for s in sigma_columns)
        return cls(d, m, VectorField.from_text(drift, d), cols)

    def sigma_at(self, point: Sequence[float]) -> np.ndarray:
        """Diffusion matrix (d, m) at a point."""
        return np.column_stack([col.evaluate(point) for col in self.diffusion])


@lru_cache(maxsize=1024)
def jacobian(field: VectorField) -> tuple[tuple[Expression, ...], ...]:
    """Jacobian matrix of expressions; row j, column i holds d(field_j)/d(x_i).

    With this orientation ``jacobian(u) @ v`` is the directional derivative of
    ``u`` along ``v``, so the bracket [v, u] = Ju*v - Jv*u reads off directly.
    Each entry is ``derivative(comp, i)``, which is ``simplify(differentiate(comp,
    i))`` built simplified.  Memoised per field, like the ``derivative`` calls
    it is made of.
    """
    return tuple(
        tuple(derivative(comp, i) for i in range(1, field.dim + 1))
        for comp in field.components
    )


# ---------------------------------------------------------------------------
# Vectorised compilation.  Every field compiler returns a function that accepts
# X with shape (..., d) and returns float64 values with the documented trailing
# shape; the step kernel works on the engine's state rows.  Non-finite values
# are not raised here: simulation code masks and counts them instead.


_SERIAL = itertools.count(1)


def _define(name: str, label: str, emit: Callable[[], list[str]]) -> Callable:
    """Compile the function ``name`` defined by the lines ``emit()`` returns.

    Its source is registered with ``linecache`` as ``<label #n>``, for
    tracebacks and profiles, for as long as the function lives.  The code
    object is read from the native cache when another process compiled the
    same source (``native.compiled``).
    """
    from .. import native  # loaded by then wherever the engine steps paths

    try:
        source = "\n".join(emit()) + "\n"
        filename = f"<{label} #{next(_SERIAL)}>"
        code = native.compiled(source, filename)
    except (SyntaxError, RecursionError) as exc:
        reason = exc.msg if isinstance(exc, SyntaxError) else str(exc)
        raise ConfigError(f"expression nested too deeply to compile ({reason})") from None
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"np": np}
    exec(code, namespace)
    weakref.finalize(namespace[name], linecache.cache.pop, filename, None)
    return namespace[name]


# The operations of ``_np_lines``'s numpy text: ``(-a)``, ``np.sin(a)``,
# ``(a + b)``, ...  On Python floats, such as two constants, they are
# Python's float arithmetic, as the text's are.
_STACK_OPS = {"neg": operator.neg, "sin": np.sin, "cos": np.cos, "exp": np.exp,
              "tanh": np.tanh, "add": operator.add, "sub": operator.sub,
              "mul": operator.mul, "div": operator.truediv}
# Python's tokenizer refuses a statement nested deeper in brackets.
_MAX_NESTING = 200
_TOO_DEEP = "expression nested too deeply to compile ({})"


def _nested(e: Expression, lhs: Expression, left: int, right: int | None) -> int:
    """The bracket nesting of ``e``'s text in ``_np_lines``, from its
    operands': ``left`` of the (left) operand ``lhs``, and ``right``, None
    when ``e`` is unary.  A leaf's text nests 1 bracket, a shared node's
    name none, and a product whose left factor is a product is written flat."""
    if right is None:
        return left + 1
    flat = e.op == "mul" == getattr(lhs, "op", "") and left > 0
    return max(left - flat, right) + 1


def _nesting(kids: dict, refs: dict, order: list) -> int:
    """The deepest bracket nesting of ``_np_lines``'s text of a DAG."""
    nest = {}

    def read(e):
        return 0 if refs[id(e)] > 1 and id(e) in kids else nest.get(id(e), 1)

    for e in order:
        ops = kids[id(e)]
        nest[id(e)] = _nested(e, ops[0], read(ops[0]), read(ops[1]) if len(ops) == 2 else None)
    return max(nest.values(), default=1)


def _store(key, out, value):
    out[key] = value


# The text's operators, as numpy runs them on a temporary array that dies
# with the operation (its "temporary elision", which it does only for arrays
# of 256 KiB or more): into that array, with the same bits.
_ELIDED = {operator.neg: np.negative, operator.add: np.add, operator.sub: np.subtract,
           operator.mul: np.multiply, operator.truediv: np.true_divide}


def _into(op, right: bool):
    """``op``, computed into its dying right (or left) operand when that is an
    array; on scalars, such as Python floats, ``op`` itself."""
    ufunc = _ELIDED[op]
    if op is operator.neg:
        return lambda a: ufunc(a, out=a) if type(a) is np.ndarray else op(a)
    if right:
        return lambda a, b: ufunc(a, b, out=b) if type(b) is np.ndarray else op(a, b)
    return lambda a, b: ufunc(a, b, out=a) if type(a) is np.ndarray else op(a, b)


class _Stack:
    """``compile_expression_stack``'s function: its expressions' lowered DAG
    (``ast._dag``), evaluated as the numpy text of ``_np_lines`` would be, but
    without generating or compiling that text.

    ``program`` holds one instruction ``(fn, a, b, dst, drop)`` per operation
    of the text, in the order in which its statements would run them: each
    shared node's assignment in turn, then ``out[..., i] = ...`` for each i,
    each statement's operands first, left to right, and each node computed
    once.  A column ``X[..., j]`` is taken where the text first reads it, a
    constant is a Python float.  An instruction sets ``vals[dst] =
    fn(vals[a], vals[b])``, or ``fn(vals[a])`` when ``b`` is None, then
    clears the slots in ``drop``: an intermediate is dropped after its last
    use; ``+ - * /`` and negation write into an operand that dies with them,
    as numpy's temporary elision does.  ``nodes[k]`` is the node that
    instruction k computes or reads, or the i of ``out[..., i]`` that it
    stores; an exception there gets a note naming that node and the
    expression it is part of.
    """

    __slots__ = ("exprs", "shape", "program", "nodes", "_init", "__weakref__")

    def __init__(self, exprs: tuple[Expression, ...], shape: tuple[int, ...]):
        self.exprs, self.shape = exprs, shape
        init = [None, None, None]  # slots: X, out, the stores' None, then the nodes'
        program, nodes, slots, last, computed = [], [], {}, {}, []

        def emit(fn, a, b, dst, node):
            last[a] = last[b] = len(program)
            program.append((fn, a, b, dst, ()))
            nodes.append(node)

        def operand(e):  # e's slot, and the bracket nesting of its text where read
            key = id(e)
            slot = slots.get(key)
            if slot is not None:  # a leaf read before, or a shared node, written as its name
                return slot, 0 if key in kids else 1
            if key in kids:
                return compute(e, key)
            slot = slots[key] = len(init)
            init.append(e.value if type(e) is Const else None)
            if type(e) is Var:
                emit(operator.itemgetter((Ellipsis, e.index - 1)), 0, None, slot, e)
            return slot, 1

        def compute(e, key):  # e's operands, then e
            ops = kids[key]
            a, left = operand(ops[0])
            b, right = operand(ops[1]) if len(ops) == 2 else (None, None)
            nest = _nested(e, ops[0], left, right)
            if nest > _MAX_NESTING:
                raise ConfigError(_TOO_DEEP.format("too many nested parentheses"))
            slot = slots[key] = len(init)
            init.append(None)
            computed.append(slot)
            emit(_STACK_OPS[e.op], a, b, slot, e)
            return slot, nest

        kids = refs = order = None
        try:
            roots, kids, refs, order = _dag(exprs)
            for e in order:
                if refs[id(e)] > 1:
                    compute(e, id(e))
            for i, e in enumerate(roots):
                emit(partial(_store, (Ellipsis, i)), 1, operand(e)[0], 2, i)
        except RecursionError as exc:  # the text's nesting decides, if it gets that far
            deep = order is not None and _nesting(kids, refs, order) > _MAX_NESTING
            raise ConfigError(_TOO_DEEP.format("too many nested parentheses" if deep else exc)
                              ) from None
        for n in computed:  # cleared after its last use, which may compute into it
            fn, a, b, dst, drop = program[last[n]]
            program[last[n]] = (fn, a, b, dst, drop + (n,))
        for k, (fn, a, b, dst, drop) in enumerate(program):
            if fn in _ELIDED and (a in drop or b in drop):
                program[k] = (_into(fn, a not in drop), a, b, dst, drop)
        self.program, self.nodes, self._init = tuple(program), tuple(nodes), init

    def __call__(self, X) -> np.ndarray:
        X = np.asarray(X, np.float64)
        out = np.empty(X.shape[:-1] + (len(self.exprs),))
        vals = self._init.copy()
        vals[0], vals[1] = X, out
        k = 0
        try:
            for k, (fn, a, b, dst, drop) in enumerate(self.program):
                vals[dst] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
                for n in drop:
                    vals[n] = None
        except Exception as exc:
            if hasattr(exc, "add_note"):
                exc.add_note(self._describe(k))
            raise
        return out.reshape(X.shape[:-1] + self.shape)

    def _describe(self, k: int) -> str:
        """Where instruction ``k`` is: its node and the first expression holding it."""
        node = self.nodes[k]
        if isinstance(node, int):
            i, what = node, "storing"
        else:
            i = next(i for i, e in enumerate(self.exprs) if id(node) in _dag((e,))[2])
            what = f"{'reading' if type(node) is Var else 'computing'} '{to_text(node)}' of"
        return f"in {self!r}: {what} out[..., {i}] = {to_text(self.exprs[i])}"

    def __repr__(self) -> str:
        return f"<fieldlang stack {self.shape!r} of {len(self.exprs)} expressions>"


@lru_cache(maxsize=1024)
def compile_expression_stack(exprs: tuple[Expression, ...], shape: tuple[int, ...]) -> Callable:
    """A function X (..., d) -> (..., *shape) evaluating a flat tuple of k
    expressions.

    The function reads X once as float64, assigns expression i to
    ``out[..., i]`` of one (..., k) array (a constant broadcasts), and
    reshapes to ``shape``.  It runs the numpy operations that ``_np_lines``'s
    text would, in the same order and with the same bits, each subexpression
    once (``_Stack``), but no source is generated: a stack often runs once.
    An expression whose text would nest too deeply for Python to compile
    raises ConfigError, as the step kernels, which are compiled, would.
    """
    return _Stack(exprs, shape)


_NEWTON_TOL, _NEWTON_MAX_ITER = 1e-12, 50

# Paths per tile of C's loop: each tile draws its increments, then takes all
# its steps, so a block never holds more than a tile of increments.  A
# tile's paths are its vector lanes, four AVX-512 registers of eight doubles
# (see _C_RUN for why a tile is wider than one register).
C_TILE = 32
# The most stack, in bytes, that ``run``'s tile may take: its (rows, C_TILE)
# ``st`` and ``o``, and under split-step C_TILE doubles per name of the
# solve.  A kernel past it, such as d = 15 with J, K and C, takes the numpy
# route: the budget is a small share of the 8 MiB that Linux gives a main
# thread's stack and glibc a new thread's by default.
_C_STACK = 256 * 1024

# C's loop over a block of B paths, a tile of C_TILE paths at a time.  A tile
# takes its increments from the caller's (n, m, B) block ``dw`` or, when that
# is NULL, draws them: each path's n m standard normals with numpy's
# sampler's bits (below), written straight into the path's lane of the
# tile's increments, then, for all lanes at once, ``brownian._brownian_paths``'
# scale and running sum and ``simulate._block_increments``' differences, in
# their float operations (W_1 = s z_1, W_k = W_{k-1} + s z_k, dW_k = W_k -
# W_{k-1}): one vectorised pass over k instead of a serial chain per lane.
# The tile's (rows, C_TILE) rows ``st`` are stepped through all n steps, in
# two passes per step.  The first computes every lane's new rows into ``o`` in
# one loop over the lanes with no branch, so the compiler vectorises it: lost
# lanes are computed too, and idle lanes of a partial tile step zeros.  Under
# split-step ``_newton``'s solve runs first, in such loops over all lanes; the
# idle and lost ones, ``frozen``, start as failed.  The second commits, in
# such loops too: ``keep`` marks each live lane whose new state rows are all
# finite (x - x is 0.0, summed over the rows) and whose solve converged, and
# every row takes ``o`` where ``keep`` is set and keeps ``st`` elsewhere, a
# select rather than a branch per lane.  Any other live lane is marked lost
# at k, by a scan that runs only when one is lost, and keeps all its rows, as
# in the engine's masked step.  At each grid index in ``stops`` the tile's
# rows are copied into the (S, rows, B) snapshot ``snap``.
#
# A tile is wider than a vector register.  Each step is one chain of
# dependent operations per register (load, sqrt and divide under tamed
# Euler, the finite check, the commit), and the divide and sqrt have long
# latencies; a tile of several registers gives the core independent chains
# to overlap.  Each lane's float operations are the same at any width, so
# the width changes no bit.  On a 2-vCPU AVX-512 Xeon, 32 lanes rather than 8
# took an 8192 x 1024 OU block from 0.089 to 0.070 s, and a heis tamed JK C
# block of 4000 x 512 from 0.068 to 0.054 s (medians of 6 alternating
# pairs); 16 lanes gained less on OU.  The stack that ``st`` and ``o`` take
# grows with the width (``_C_STACK``).
#
# On x86-64 with glibc, ``run`` is built three times (``target_clones``):
# for AVX-512F, AVX2 and the baseline, and the loader picks the widest one
# the CPU has, as ``isa`` reports, so a cache shared between machines stays
# safe.  Each clone earns its build time: on an AVX-512 Xeon, with tiles of
# 8, a heis block took 7-19% less time in the AVX-512F clone than in the AVX2
# one, and 15-26% less in the AVX2 clone than in the baseline, under tamed
# or plain Euler; under split-step, whose solve is part of ``run``, 4-22%
# and 17-34%.
# Vector and scalar arithmetic round alike, and with no contraction into
# fused multiply-adds every clone gives the same bits.
#
# The normals are numpy's ziggurat (``random_standard_normal`` in
# ``libnpyrandom.a``; Marsaglia and Tsang 2000) on numpy's Philox4x64-10
# (Salmon et al. 2011), drawn by ``stream``.  First the stream's words, in
# bulk: ceil(n m / 4) counter blocks of 4 words, computed inline with
# numpy's constants and its counter, which numpy increments before each
# block, so block b has counter b + 1.  They fill 4 ceil(n m / 4) words of
# ``work`` apart from the tile's increments: up to 3 more than the normals,
# which must not reach a lane.  Then the ziggurat's fast path reads them:
# one word r, layer idx = r & 0xff, rabs = bits 9..60, and when rabs <
# k[idx] the normal rabs w[idx] with bit 8 of r as its sign bit, set
# without a branch (numpy's ``if (sign) x = -x`` mispredicts half the
# time).  Any other draw, about 1.5% of them, goes to numpy's own sampler
# on a bitgen_t over the same words, set back to r, so the rejection step
# and the idx-0 tail are numpy's by construction; the fast path goes on at
# the word the sampler reached.  Past the bulk words that bitgen_t computes
# the next counter block as it reaches it, and every normal there is
# numpy's sampler's.  Its next_double is numpy's Philox conversion, the
# word's top 53 bits times 2^-53.  No generator of numpy's is read or
# written, so the loop needs no lock of one.  The tables w and k
# are local symbols of ``libnpyrandom.a``, so ``setup`` reads them off numpy's
# sampler through a scripted bitgen_t that counts its draws: k[idx] is the
# first rabs that takes more than one draw (a bisection over [0, 2^52]),
# w[idx] the output at rabs = 1, which no layer with k <= 1 accepts.  The
# script's next_double returns 0.5: at 0.0 numpy's tail loop never ends.
# ``setup`` then draws a fixed stream with ``stream`` itself, the one
# function the loop calls, and the engine uses the loop only if its normals
# are numpy's bit for bit and the stream took a slow draw on the bulk words
# and drew a normal past them, so a check too short to cover both is
# refused.
# Only ``bitgen.h`` is included, and the one sampler called is declared
# here: numpy's ``distributions.h`` also includes ``Python.h``, which no
# library needs and which made up most of a small library's compile time.
_C_RUN = """\
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <numpy/random/bitgen.h>
double random_standard_normal(bitgen_t *);

#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define LANES_CLONED 1
#endif
#endif

static double zig_w[256];
static uint64_t zig_k[256];

typedef struct {{
    uint64_t first;
    int64_t draws;
}} script_t;

static uint64_t script_uint64(void *st)
{{
    script_t *p = st;  /* later draws: layer "draws" at rabs 0 */
    return p->draws++ ? (uint64_t)p->draws & 0xff : p->first;
}}

static uint32_t script_uint32(void *st)
{{
    ((script_t *)st)->draws++;
    return 0;
}}

static double script_double(void *st)
{{
    ((script_t *)st)->draws++;
    return 0.5;
}}

static int one_draw(uint64_t r, double *x)
{{
    script_t script = {{r, 0}};
    bitgen_t bitgen = {{&script, script_uint64, script_uint32, script_double, script_uint64}};
    *x = random_standard_normal(&bitgen);
    return script.draws == 1;
}}

/* numpy's Philox4x64-10 (Random123's philox4x64_R, Salmon et al. 2011):
   the 4 words of each of the stream's counter blocks first .. first + blocks - 1. */
static inline void philox_words(uint64_t seed, uint64_t id, int64_t first, int64_t blocks,
                                uint64_t *out)
{{
    for (int64_t b = 0; b < blocks; ++b) {{
        /* the counter, incremented before each block */
        uint64_t c0 = (uint64_t)(first + b) + 1, c1 = 0, c2 = 0, c3 = 0;
        uint64_t k0 = seed, k1 = id;
#pragma GCC unroll 10
        for (int i = 0; i < 10; ++i) {{
            const unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93ULL * c0;
            const unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157ULL * c2;
            c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
            c1 = (uint64_t)p1;
            c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
            c3 = (uint64_t)p0;
            k0 += 0x9E3779B97F4A7C15ULL;  /* the key's bump before each later round */
            k1 += 0xBB67AE8584CAA73BULL;
        }}
        out[4 * b] = c0;
        out[4 * b + 1] = c1;
        out[4 * b + 2] = c2;
        out[4 * b + 3] = c3;
    }}
}}

/* A stream's words from word w on: its first ``end`` (a multiple of 4) from
   ``bulk``, then counter block after block, computed as it is reached. */
typedef struct {{
    uint64_t seed, id;
    const uint64_t *bulk;
    int64_t w, end;
    uint64_t block[4];  /* past the bulk words: the block of word w - 1 */
}} words_t;

static uint64_t next_word(void *st)
{{
    words_t *p = st;
    const int64_t w = p->w++;
    if (w < p->end)
        return p->bulk[w];
    if (w % 4 == 0)  /* past the bulk words, w only moves on */
        philox_words(p->seed, p->id, w / 4, 1, p->block);
    return p->block[w % 4];
}}

static uint32_t next_half(void *st)  /* numpy's sampler draws no uint32 */
{{
    return (uint32_t)next_word(st);
}}

static double next_double(void *st)  /* numpy's Philox: the word's top 53 bits */
{{
    return (next_word(st) >> 11) * (1.0 / 9007199254740992.0);
}}

/* The first ``count`` normals of the stream (seed, id), as numpy's
   standard_normal draws them, to out[i * stride]: the stream's words drawn
   in bulk into ``bulk`` (room for 4 ceil(count / 4)), the ziggurat's fast
   path read off them, and every other draw numpy's own sampler's, on a
   bitgen_t over the same words set back to r.  Normals past the bulk words
   are all numpy's, on that bitgen_t.  ``tally`` counts the draws that left
   the fast path on bulk words, then the normals past them.
   Called once per path, it is built once, not into each clone of run:
   ``setup`` checks the very code the loop calls, and a cold build takes
   about a quarter less compiler time than with a copy in each clone. */
__attribute__((noinline)) static void stream(uint64_t seed, uint64_t id, int64_t count,
                                               double *out, int64_t stride, uint64_t *bulk,
                                               int64_t *tally)
{{
    words_t words = {{seed, id, bulk, 0, 4 * ((count + 3) / 4)}};
    bitgen_t bitgen = {{&words, next_word, next_half, next_double, next_word}};
    philox_words(seed, id, 0, words.end / 4, bulk);
    int64_t i = 0;  /* normals drawn */
    while (i < count && words.w < words.end) {{
        const uint64_t *first = bulk + (words.w - i);  /* normal i's word, up to a slow draw */
        const int64_t end = count < i + words.end - words.w ? count : i + words.end - words.w;
        for (; i < end; ++i) {{
            const uint64_t r = first[i];
            const int idx = r & 0xff;
            const uint64_t rabs = (r >> 9) & 0x000fffffffffffffULL;
            if (rabs >= zig_k[idx])
                break;
            union {{ double x; uint64_t u; }} v = {{(double)(int64_t)rabs * zig_w[idx]}};
            v.u ^= (r & 0x100) << 55;
            out[i * stride] = v.x;
        }}
        words.w = first - bulk + i;  /* r's word, if the fast path left off */
        if (i == end)
            break;
        out[i * stride] = random_standard_normal(&bitgen);
        ++i;
        ++tally[0];
    }}
    for (; i < count; ++i, ++tally[1])
        out[i * stride] = random_standard_normal(&bitgen);
}}

int setup(uint64_t seed, uint64_t id, int64_t count, const double *want)
{{
    double x;
    for (uint64_t idx = 0; idx < 256; ++idx) {{
        uint64_t lo = 0, hi = 1ULL << 52;  /* rabs < lo is accepted, rabs >= hi is not */
        while (lo < hi) {{
            const uint64_t mid = lo + (hi - lo) / 2;
            if (one_draw(mid << 9 | idx, &x))
                lo = mid + 1;
            else
                hi = mid;
        }}
        zig_k[idx] = lo;
        zig_w[idx] = lo > 1 && one_draw(1 << 9 | idx, &x) ? x : 0.0;
    }}
    if (count < 1)
        return 0;
    uint64_t *bulk = malloc(4 * ((count + 3) / 4) * sizeof *bulk);
    double *got = malloc(count * sizeof *got);
    int64_t tally[2] = {{0, 0}};
    int same = 0;
    if (bulk && got) {{
        stream(seed, id, count, got, 1, bulk, tally);
        same = !memcmp(got, want, count * sizeof *got);
    }}
    free(bulk);
    free(got);
    return same && tally[0] > 0 && tally[1] > 0;  /* a slow draw on the bulk words, one past them */
}}

const char *isa(void)
{{
#ifdef LANES_CLONED
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return "avx512f";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "default";
}}

int64_t tile(void) {{ return {tile}; }}

#ifdef LANES_CLONED
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
void run(const double *s, double *snap, const int64_t *stops, int64_t S, const double *dw,
         uint64_t seed, const uint64_t *ids, double scale, double h, int64_t B, int64_t n,
         int64_t *diverged, const double *T, double *work)
{{
    double *inc = work;  /* (n, m, tile), then a stream's bulk words, apart */
    uint64_t *bulk = (uint64_t *)(work + n * {m} * {tile});
    int64_t tally[2] = {{0, 0}};  /* setup's counts, unread here */
    for (int64_t b0 = 0; b0 < B; b0 += {tile}) {{
        const int64_t width = B - b0 < {tile} ? B - b0 : {tile};
        double st[{rows} * {tile}], o[{rows} * {tile}];
        int64_t frozen[{tile}];  /* idle and lost lanes, whose rows are never stored */
        int64_t live = 0;
        for (int64_t g = width; g < {tile}; ++g) {{  /* idle lanes step zeros */
            frozen[g] = 1;
            for (int r = 0; r < {rows}; ++r)
                st[r * {tile} + g] = 0.0;
            for (int64_t i = 0; i < n * {m}; ++i)
                inc[i * {tile} + g] = 0.0;
        }}
        for (int64_t g = 0; g < width; ++g) {{
            frozen[g] = diverged[b0 + g] >= 0;
            live += !frozen[g];
            for (int r = 0; r < {rows}; ++r)
                st[r * {tile} + g] = s[b0 + g + r * B];
            if (dw) {{
                for (int64_t i = 0; i < n * {m}; ++i)
                    inc[i * {tile} + g] = dw[i * B + b0 + g];
                continue;
            }}
            stream(seed, ids[b0 + g], n * {m}, inc + g, {tile}, bulk, tally);
        }}
        for (int j = 0; !dw && j < {m}; ++j) {{  /* all lanes' normals to increments at once */
            double w[{tile}];  /* W(t_k); the first is W_1 itself, as cumsum's */
            for (int64_t g = 0; g < {tile}; ++g)
                w[g] = inc[j * {tile} + g] *= scale;
            for (int64_t k = 1; k < n; ++k) {{
                double *z = inc + (k * {m} + j) * {tile};
                for (int64_t g = 0; g < {tile}; ++g) {{
                    const double next = w[g] + scale * z[g];
                    z[g] = next - w[g];
                    w[g] = next;
                }}
            }}
        }}
        for (int64_t k = 0, stop = 0;; ++k) {{
            if (stop < S && stops[stop] == k) {{
                for (int r = 0; r < {rows}; ++r)
                    for (int64_t g = 0; g < width; ++g)
                        snap[(stop * {rows} + r) * B + b0 + g] = st[r * {tile} + g];
                ++stop;
            }}
            if (k == n)
                break;
            if (!live)
                continue;
            const double *dwk = inc + k * {m} * {tile};
            {solve}
            for (int64_t g = 0; g < {tile}; ++g) {{  /* every lane, without a branch */
                {body}
            }}
            double nonfinite[{tile}] = {{0.0}};  /* x - x is 0.0 for a finite x, else NaN */
            for (int r = 0; r < {state}; ++r)
                for (int64_t g = 0; g < {tile}; ++g)
                    nonfinite[g] += o[r * {tile} + g] - o[r * {tile} + g];
            int64_t keep[{tile}], lost = 0;  /* a live lane whose new rows stand */
            for (int64_t g = 0; g < {tile}; ++g) {{
                keep[g] = !frozen[g] & {solved} & (nonfinite[g] == 0.0);
                lost += !frozen[g] & !keep[g];
            }}
            if (lost) {{
                for (int64_t g = 0; g < width; ++g)
                    if (!frozen[g] && !keep[g])
                        diverged[b0 + g] = k;
                live -= lost;
            }}
            for (int64_t g = 0; g < {tile}; ++g)
                frozen[g] = !keep[g];
            for (int r = 0; r < {rows}; ++r)
                for (int64_t g = 0; g < {tile}; ++g) {{  /* both loaded: a select, not a branch */
                    const double next = o[r * {tile} + g], now = st[r * {tile} + g];
                    st[r * {tile} + g] = keep[g] ? next : now;
                }}
        }}
    }}
}}
"""


class _Let:
    """Assignments ``name = text`` as numpy statements, or with ``c`` as C
    statements that declare a name ``double`` where it is first assigned."""

    def __init__(self, c: bool):
        self.c, self.declared = c, set()

    def __call__(self, name: str, text: str) -> str:
        if not self.c:
            return f"{name} = {text}"
        new = name not in self.declared
        self.declared.add(name)
        return f"{'double ' * new}{name} = {text};"


# The spellings of ``_newton`` that differ by route, numpy's then C's: a
# select, a mask's negation, isfinite, sqrt and the headers of its loops,
# Newton's iterations and the line search's steps 2^-r.  C's masks are
# int64_t 0s and 1s, as wide as a double, which & and | combine as bools.
_SPELLINGS = (
    ("np.where({}, {}, {})", "~", "np.isfinite({})", "np.sqrt({})",
     {"newton": f"for _ in range({_NEWTON_MAX_ITER}):",
      "search": "for scale in (0.5 ** r for r in range(20)):"}),
    ("({} ? {} : {})", "!", "(isfinite({}) != 0)", "sqrt({})",
     {"newton": f"for (int iter = 0; iter < {_NEWTON_MAX_ITER}; ++iter) {{",
      "search": "for (double scale = 1.0; scale > 0x1p-20; scale *= 0.5) {"}),
)
_C_MASKS = {"converged", "failed", "pending", "accept"}
_WORD = re.compile(r"\b[A-Za-z_]\w*")


def _newton(drift: VectorField, c: bool = False) -> list[str]:
    """Damped Newton for z = x + h b(z), each path on its own, written once:
    numpy lines on rows of B paths, or with ``c`` C loops over a tile's lanes.
    An active path takes the first of the steps 1, 1/2, ..., 2^-19 that
    lowers its residual enough, or fails; the elimination skips the constant
    0s.  The paths of the mask ``lost`` start as failed: in C, X comes from
    ``st``, ``lost`` is ``frozen`` (the idle and lost lanes), and z,
    ``converged`` and ``failed`` are left in ``lane.z0``, ..., ``lane.failed``."""
    d, grad = drift.dim, jacobian(drift)
    where, neg, finite, sqrt, _ = _SPELLINGS[c]
    one = _literal(1.0, c)
    a = {(p, q) for p in range(d) for q in range(d)
         if p == q or not (isinstance(grad[p][q], Const) and grad[p][q].value == 0.0)}
    solve, texts = _np_lines([grad[p][q] for p, q in sorted(a)], "z{}", "ta", c)
    solve += [(f"a{p}_{q}", f"{float(p == q)!r} - h * {t}") for (p, q), t in zip(sorted(a), texts)]
    solve += [(f"r{i}", f"-f{i}") for i in range(d)]
    for k in range(d):  # forward elimination, the right-hand side alongside
        for i in (i for i in range(k + 1, d) if (i, k) in a):
            # np.divide, as a constant pivot is a float: 1.0 / 0.0 gives inf, not an error
            solve.append(("l", f"a{i}_{k} / a{k}_{k}" if c else f"np.divide(a{i}_{k}, a{k}_{k})"))
            for j in (j for j in range(k + 1, d) if (k, j) in a):
                entry = f"a{i}_{j}" if (i, j) in a else "0.0"
                solve.append((f"a{i}_{j}", f"{entry} - l * a{k}_{j}"))
                a.add((i, j))
            solve.append((f"r{i}", f"r{i} - l * r{k}"))
    for i in reversed(range(d)):  # back substitution, later columns first
        terms = "".join(f" - a{i}_{j} * d{j}" for j in reversed(range(i + 1, d)) if (i, j) in a)
        solve.append((f"d{i}", f"(r{i}{terms}) / a{i}_{i}"))

    def names(v):
        return ", ".join(f"{v}{i}" for i in range(d))

    def residual(at, out):  # out = at - x - h b(at)
        temps, texts = _np_lines(drift.components, at + "{}", "tr", c)
        return temps + [(f"{out}{i}", f"{at}{i} - x{i} - h * {t}") for i, t in enumerate(texts)]

    def evaluate(at, out):  # C inlines the residual, numpy calls it: its text appears once
        return residual(at, out) if c else [(f"{names(out)},", f"residual({names(at)})")]

    def norm(v):  # squares summed in index order, as numpy's add.reduce over the rows
        return sqrt.format(" + ".join(f"{v}{i} * {v}{i}" for i in range(d)))

    small = f"(fnorm <= {_literal(_NEWTON_TOL, c)} * ({one} + {norm('z')}))"
    sufficient = f"(cnorm <= ({one} - {_literal(1e-4, c)} * scale) * fnorm)"
    search = [*((f"c{i}", f"z{i} + scale * d{i}") for i in range(d)), *evaluate("c", "g"),
              ("cnorm", norm("g")), ("accept", f"pending & {finite.format('cnorm')} & {sufficient}"),
              *((f"{v}{i}", where.format("accept", f"{w}{i}", f"{v}{i}"))
                for v, w in (("z", "c"), ("f", "g")) for i in range(d)),
              ("fnorm", where.format("accept", "cnorm", "fnorm")),
              ("pending", f"pending & {neg}accept"), (None, "pending")]
    items = [*((f"z{i}", f"x{i}") for i in range(d)), *evaluate("z", "f"), ("fnorm", norm("f")),
             ("failed", f"{neg}{finite.format('fnorm')} | lost"), ("converged", small),
             ("newton", [("pending", f"{neg}(converged | failed)"), (None, "pending"), *solve,
                         ("search", search), ("failed", "failed | pending"),
                         ("converged", f"converged | {neg}failed & {small}")])]
    if not c:
        return [f"def residual({names('z')}):", *(f"    {n} = {t}" for n, t in residual("z", "f")),
                f"    return {names('f')},", *_render(items, c, {})]
    lane = {f"x{i}": f"st[g + {i} * {C_TILE}]" for i in range(d)} | {"lost": "frozen[g]"}
    lines = _render(items, c, lane)
    arrays = (", ".join(f"{n}[{C_TILE}]" for n, v in lane.items()
                        if v == f"lane.{n}[g]" and (n in _C_MASKS) == mask) for mask in (0, 1))
    return ["struct {{double {}; int64_t {};}} lane;".format(*arrays), *lines]


def _render(items, c: bool, lane: dict) -> list[str]:
    """The lines of ``_newton``'s description ``items``: assignments ``(name,
    text)``, stops ``(None, mask)`` that leave the loop when no path has
    ``mask``, and loops ``(kind, items)``.  numpy's statements act on rows.
    In C each straight run of assignments is one loop over the lanes, which
    the compiler can vectorise, on lane g of the arrays ``lane.<name>``;
    ``lane`` maps each name read to its C text, and gains each name assigned."""
    lines, run = [], []

    def flush(stop):
        if not c:
            return [f"{n} = {t}" for n, t in run] + [f"if not {stop}.any():", "    break"] * bool(stop)
        body = []
        for name, text in run:
            body.append(f"    lane.{name}[g] = {_WORD.sub(lambda w: lane.get(w[0], w[0]), text)};")
            lane[name] = f"lane.{name}[g]"
        tail = [f"    more |= lane.{stop}[g];", "}", "if (!more)", "    break;"] if stop else ["}"]
        return ["int64_t more = 0;"] * bool(stop) + [
            f"for (int64_t g = 0; g < {C_TILE}; ++g) {{", *body, *tail]

    for name, what in [*items, (None, None)]:  # (None, None): the end, which ends a run too
        if name is not None and isinstance(what, str):
            run.append((name, what))
            continue
        lines += flush(what if name is None else None) if run else []  # a stop ends a run
        run = []
        if isinstance(what, list):
            lines += [_SPELLINGS[c][4][name], *(f"    {ln}" for ln in _render(what, c, lane)),
                      *["}"] * c]
    return lines


@dataclass(frozen=True, slots=True)
class Kernel:
    """One step of the ensemble engine: the model, the scheme and the rows it
    steps.  It keys ``compile_step_kernel``, ``step_kernel_c`` and the
    engine's native loops, and ``rows`` is the one definition of a block's
    (rows, B) layout.

    The rows are named, in this order: X (``x0``, ...); with ``flows``, J
    then K, row-major (``J0_0``, ``J0_1``, ...); with ``covariance``, C's
    upper triangle, row-major (``C0_0``, ``C0_1``, ...).  These first
    ``state`` rows decide whether a path is lost.  The record rows follow: a
    lost path's freeze with its state, and no caller reads them.
    ``identity`` adds ``sup``, the running max of |K J - I|, its squares
    summed row-major in (p, r), then ``sqrt``.  ``remainder = (target,
    prefixes, indices)`` adds ``integrals.RemainderEnergy``'s rows: ``cum``,
    the running trapezoid integral of ``E`` = |R|^2, and the midpoint
    integral I_e of each prefix, in ``prefixes`` order (``I1_2`` for e = (1,
    2)): the stored-path oracle's float operations, but for the sign of a
    zero R, which E squares away.  ``square_norm`` adds, last, ``xsup``, the
    running max of |X|^2, summed in index order as ``np.add.reduce`` sums.
    """

    coeffs: CoefficientSet
    scheme: str
    flows: bool = False
    covariance: bool = False
    identity: bool = False
    remainder: tuple | None = None
    square_norm: bool = False
    rows: tuple[str, ...] = field(init=False, repr=False, compare=False)
    state: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = range(self.coeffs.d)
        rows = [f"x{i}" for i in d]
        rows += [f"{M}{p}_{r}" for M in "JK" for p in d for r in d if self.flows]
        rows += [f"C{p}_{r}" for p in d for r in d if p <= r and self.covariance]
        object.__setattr__(self, "state", len(rows))
        rows += ["sup"] * self.identity
        rows += ["cum", "E", *self.integrals.values()] if self.remainder else []
        rows += ["xsup"] * self.square_norm
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def integrals(self) -> dict:
        """The row of each of the remainder's prefix integrals, by prefix."""
        return {e: "I" + "_".join(map(str, e)) for e in self.remainder[1]} if self.remainder else {}

    def part(self, name: str) -> tuple[list[int], tuple[int, ...]]:
        """The rows of ``name`` and its shape per path: "x" (d,), "J", "K" or
        "C" (d, d), row-major, C whole from its triangle's rows, or one row ()."""
        d, at = self.coeffs.d, self.rows.index
        if name == "x":
            return [at(f"x{i}") for i in range(d)], (d,)
        if name not in ("J", "K", "C"):
            return [at(name)], ()
        pairs = [(min(p, r), max(p, r)) if name == "C" else (p, r)
                 for p in range(d) for r in range(d)]
        return [at(f"{name}{p}_{r}") for p, r in pairs], (d, d)


def _step_source(kernel: Kernel, c: bool = False) -> list[str] | None:
    """The source lines of ``compile_step_kernel``'s step, or with ``c`` of
    ``step_kernel_c``'s loop: one emission, in which only the statements'
    form depends on ``c``.  numpy's statements act on rows of B paths and
    write the new rows to ``out``; C's act on lane g of a tile's doubles and
    write them to ``o[row * C_TILE + g]``, which ``_C_RUN`` stores when the
    state rows are finite."""
    coeffs, scheme, rows = kernel.coeffs, kernel.scheme, kernel.rows
    d, m = coeffs.d, coeffs.m
    implicit = scheme == "split-step-backward-euler"
    sigma = [[col.components[q] for col in coeffs.diffusion] for q in range(d)]
    pairs = [(p, r) for p in range(d) for r in range(d)]
    upper = [(p, r) for p, r in pairs if p <= r]
    let, one, sqrt = _Let(c), _literal(1.0, c), "sqrt" if c else "np.sqrt"
    if c:
        body = [let(name, f"st[g + {n} * {C_TILE}]") for n, name in enumerate(rows)]
        body += [let(f"dw{i}", f"dwk[g + {i} * {C_TILE}]") for i in range(m)]
        body += [let(f"z{i}", f"lane.z{i}[g]") for i in range(d) if implicit]
    else:
        body = [f"{name} = s[{n}]" for n, name in enumerate(rows)]
        body += [f"dw{i} = dw[{i}]" for i in range(m)]
        body += _newton(coeffs.drift) if implicit else []
    start, names = len(body), {}

    def entry(e, at="x"):  # a literal, or a local that the entry lines define
        if isinstance(e, Const):
            return _literal(e.value, c)
        return names.setdefault((e, at), f"e{len(names)}")

    def factor(e, at="x"):  # None for the constant 0
        return None if isinstance(e, Const) and e.value == 0.0 else entry(e, at)

    def mul(a, b):
        return None if a is None or b is None else (
            a if b == one else b if a == one else f"{a} * {b}")

    def total(terms, local=None):  # None for no terms; bound to a local if named
        text = " + ".join(t for t in terms if t is not None) or None
        if local is None or text is None:
            return text
        body.append(let(local, text))
        return local

    def new(name):  # the row ``name`` at k + 1
        row = rows.index(name)
        return f"o[{row} * {C_TILE} + g]" if c else f"out[{row}]"

    def store(name, text):
        body.append(f"{new(name)} = {text}{';' * c}")

    def update(name, op, terms, first=None):  # out's row ``name`` = first op terms
        first = first or name
        if not terms:
            store(name, first)
        elif c:
            store(name, f"({first}) {'+' if op == 'add' else '-'} ({terms})")
        else:
            body.append(f"np.{op}({first}, {terms}, out={new(name)})")

    b = [entry(e) for e in coeffs.drift.components if not implicit]
    inc = [f"(z{i} - x{i})" for i in range(d)] if implicit else [f"h * {v}" for v in b]
    if scheme == "tamed-euler":
        squares = total(mul(factor(e), factor(e)) for e in coeffs.drift.components)
        body.append(let("taming", f"1.0 + h * {sqrt}({squares or '0.0'})"))
        inc = [f"(h * {v}) / taming" for v in b]
    at = "z" if implicit else "x"
    for i in range(d):
        noise = total(mul(factor(sigma[i][j], at), f"dw{j}") for j in range(m))
        update(f"x{i}", "add", f"({noise}) + 0.0" if noise else "0.0", f"x{i} + {inc[i]}")
    if kernel.flows:
        gb, gs = jacobian(coeffs.drift), [jacobian(col) for col in coeffs.diffusion]
        A = [[None] * d for _ in range(d)]
        for p, q in pairs:
            terms = [mul(factor(gs[i][p][q]), f"dw{i}") for i in range(m)]
            A[p][q] = total([mul("h", factor(gb[p][q])), *terms], f"A{p}_{q}")
        G = [row[:] for row in A]
        for p, q in pairs:
            sums = (total(mul(factor(g[p][t]), factor(g[t][q])) for t in range(d)) for g in gs)
            squares = total(f"({t})" for t in sums if t)
            if squares:
                G[p][q] = total([f"{A[p][q] or '0.0'} - h * ({squares})"], f"G{p}_{q}")
        for p, r in pairs:
            update(f"J{p}_{r}", "add", total(mul(A[p][q], f"J{q}_{r}") for q in range(d)))
        for p, r in pairs:
            update(f"K{p}_{r}", "subtract", total(mul(f"K{p}_{q}", G[q][r]) for q in range(d)))
    if kernel.covariance:
        S = [[total((mul(f"K{p}_{q}", factor(sigma[q][i])) for q in range(d)), f"S{p}_{i}")
              for i in range(m)] for p in range(d)]
        for p, r in upper:
            terms = total(mul(S[p][i], S[r][i]) for i in range(m))
            update(f"C{p}_{r}", "add", terms and f"h * ({terms})")

    def running_max(name, value):  # numpy's maximum: a NaN on either side wins
        store(name, f"(isnan({name}) || {name} >= {value}) ? {name} : {value}" if c
              else f"np.maximum({name}, {value})")

    if kernel.identity:
        for p, r in pairs:
            kj = " + ".join(f"{new(f'K{p}_{q}')} * {new(f'J{q}_{r}')}" for q in range(d))
            body.append(let(f"D{p}_{r}", f"{kj} - {one}" if p == r else kj))
        squares = " + ".join(f"D{p}_{r} * D{p}_{r}" for p, r in pairs)
        body.append(let("defect", f"{sqrt}({squares})"))
        running_max("sup", "defect")
    if kernel.square_norm:
        body.append(let("xsq", " + ".join(f"{new(f'x{i}')} * {new(f'x{i}')}" for i in range(d))))
        running_max("xsup", "xsq")
    ystart = len(body)
    if kernel.remainder:
        (target, _, indices), integral = kernel.remainder, kernel.integrals
        for e, name in integral.items():  # (1 + 1) / 2 * dW is dW, exactly
            w = "h" if e[-1] == 0 else f"dw{e[-1] - 1}"
            prefix = integral.get(e[:-1])
            update(name, "add", f"{_literal(0.5, c)} * ({prefix} + {new(prefix)}) * {w}"
                   if prefix else w)
        body += [let(f"y{i}", new(f"x{i}")) for i in range(d)]
        ystart = len(body)
        for p in range(d):
            pullback = total(mul(new(f"K{p}_{q}"), factor(target.components[q], "y"))
                             for q in range(d))
            truncation = total(mul(f"T[{a * d + p}]" if c else f"T[{a}, {p}]",
                                   new(integral[e]) if e else one)
                               for a, e in enumerate(indices))
            pullback = pullback or _literal(0.0, c)
            body.append(let(f"R{p}", f"{pullback} - ({truncation})" if truncation else pullback))
        body.append(let("En", " + ".join(f"R{p} * R{p}" for p in range(d))))
        update("cum", "add", f"{_literal(0.5, c)} * (E + En) * h")
        store("E", "En")
    if not c:
        finite = f"np.isfinite(out[:{kernel.state}]).all(axis=0)"
        body.append(f"return {finite} & converged & ~failed" if implicit else f"return {finite}")
    for at, where in (("y", ystart), ("z", start), ("x", start)):  # x's entries come first
        group = {e: n for (e, place), n in names.items() if place == at}
        temps, texts = _np_lines(tuple(group), at + "{}", "t" + at, c)
        body[where:where] = [let(n, t) for n, t in [*temps, *zip(group.values(), texts)]]
    if not c:
        return ["def step(s, out, dw, h, T=None, lost=False):", *(f"    {line}" for line in body)]
    solve = _newton(coeffs.drift, c=True) if implicit else []
    # run's stack: st and o, then the solve's lane arrays, which its first line declares
    lanes = solve[0].count(f"[{C_TILE}]") if solve else 0
    if 8 * C_TILE * (2 * len(rows) + lanes) > _C_STACK:
        return None
    return _C_RUN.format(
        m=m, rows=len(rows), state=kernel.state, tile=C_TILE,
        solve="\n            ".join(solve),
        solved="(lane.converged[g] & !lane.failed[g])" if implicit else "1",
        body="\n                ".join(body),
    ).splitlines()


@lru_cache(maxsize=256)
def compile_step_kernel(kernel: Kernel) -> Callable:
    """One generated step ``step(s, out, dw, h, T=None, lost=False)`` of the ensemble engine.

    ``s`` holds a block's rows of B paths, ``kernel.rows``.  The step writes
    to ``out`` X + drift + noise under ``kernel.scheme`` (noise sigma(z) dW
    at the split-step scheme's solved point ``z``), J + A J, K - K G and C +
    h S S^T with S = K sigma(X), for the (m, B) increments ``dw``, and
    returns the mask of paths whose new state is finite and whose split-step
    solve converged.  That solve does not pivot: ``SimConfig`` refuses h L
    >= 1 for a monotone bound L, so the symmetric part of I - h grad b is at
    least (1 - h L) I, and the LU factorisation exists without pivoting
    (Golub and Van Loan); a zero or non-finite pivot fails its own row only.
    The solve is ``_newton``'s damped Newton on all B rows at once, each row
    masked on its own; the rows of the mask ``lost``, paths lost before,
    start it as failed, so a frozen state without a root never keeps it
    iterating.  Each subexpression of b, sigma, grad b and grad sigma_i is
    evaluated once; each product with a constant-0 factor (of either sign)
    is left out, as is a factor 1.0; sums add the rest in ascending index
    order.  numpy's axis sums start from 0.0, which can only turn a sum of
    zeros into +0.0: the noise keeps it as ``+ 0.0``, so X keeps its bits,
    and entries of J, K and C, which start at 0.0 or 1.0, can never become
    -0.0.  The record rows are stepped as ``Kernel`` describes, with ``T``
    the remainder's coefficients.

    ``step_kernel_c`` renders the same lines as C; ``flows.simulate`` says
    which of the two a block runs.
    """
    label = (f"hypolab step d={kernel.coeffs.d} m={kernel.coeffs.m} {kernel.scheme}"
             + " JK" * kernel.flows + " C" * kernel.covariance + " sup" * kernel.identity
             + " R" * bool(kernel.remainder) + " |X|^2" * kernel.square_norm)
    return _define("step", label, lambda: _step_source(kernel))


@lru_cache(maxsize=256)
def step_kernel_c(kernel: Kernel):
    """C source of the block loop ``run``, or None when a field or the
    remainder target uses sin, cos, exp or tanh, or when the loop's tile
    would take more than ``_C_STACK`` bytes of stack.

    ``run(s, snap, stops, S, dw, seed, ids, scale, h, B, n, diverged, T,
    work)`` takes all n steps of a block of B paths, a tile of ``C_TILE``
    paths at a time.  ``s`` is the (rows, B) initial state of
    ``compile_step_kernel``; the rows at the S ascending grid indices
    ``stops`` go to the (S, rows, B) ``snap``.  The increments are the
    caller's (n, m, B) ``dw``, or, when ``dw`` is NULL, drawn per path from
    numpy's Philox keyed by (``seed``, ``ids[b]``) with counter block 0,
    whose words the loop computes itself, and scaled by ``scale`` = sqrt h:
    the bits of ``simulate._block_increments``.  The library's ``setup(seed,
    id, count, want)`` must run first: it reads numpy's ziggurat tables and
    returns 1 when the ``count`` normals of the stream (``seed``, ``id``),
    drawn as the loop draws them, are the bits of ``want`` and took at least
    one slow draw on the bulk words and one normal past them; 0 otherwise,
    or when its scratch cannot be allocated.  ``diverged`` holds the (B,)
    int64 steps at which paths were lost, -1 for none, ``T`` the remainder's
    coefficients and ``work`` room for ``C_TILE`` n m + 4 ceil(n m / 4)
    doubles: the tile's increments, then a stream's words.  The library's
    ``isa()`` names the clone of ``run`` the loader picked: "avx512f",
    "avx2" or "default".  ``tile()`` returns the width ``C_TILE`` had when
    the source was rendered, which sizes ``work``.

    Each step is ``compile_step_kernel``'s, line by line, on each lane of
    the tile, ``o[row * C_TILE + g]`` for lane g's row: the same operations
    in the same order, constants as exact hexadecimal literals.  The
    split-step solve is the numpy step's, rendered from the same
    description by ``_newton``: its statements run over all the tile's
    lanes, a loop over the lanes per straight run, with lane-wide masks.
    Every lane is computed in one branch-free loop the compiler vectorises,
    and committed by per-lane selects; a path whose new X, J, K or C has a
    non-finite entry, or whose solve fails, gets ``diverged = k`` and keeps
    all its rows, records too, and a lost path's rows are never stored
    again.

    ``run`` keeps the tile on its stack (``_C_STACK``): 13.5 KiB for heis
    with J, K and C, 21 KiB under split-step.

    Compiled without contraction into fused multiply-adds
    (``-ffp-contract=off``), every operation rounds as numpy's does, in a
    vector lane as in a scalar, so the bits agree; the engine checks that
    on a probe block before it uses the loop.
    """
    coeffs, remainder = kernel.coeffs, kernel.remainder
    fields = (coeffs.drift, *coeffs.diffusion, *(remainder[:1] if remainder else ()))
    if not all(_rational(e) for f in fields for e in f.components):
        return None
    source = _step_source(kernel, c=True)
    return None if source is None else "\n".join(source) + "\n"


def _rational(expr: Expression) -> bool:
    """Whether ``expr`` is built from constants, variables, ``+ - * /``, negation
    and powers only: C then rounds it as numpy does.  (libm's and numpy's sin,
    cos, exp and tanh may differ in the last bit.)"""
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Unary):
            if e.op != "neg":
                return False
            stack.append(e.arg)
        elif isinstance(e, Binary):
            stack += (e.lhs, e.rhs)
        elif isinstance(e, Power):
            stack.append(e.base)
    return True


def compile_field(field: VectorField) -> Callable:
    """X (..., d) -> field values (..., d)."""
    return compile_expression_stack(field.components, (field.dim,))


def compile_jacobian(field: VectorField) -> Callable:
    """X (..., d) -> Jacobian values (..., d, d), row j col i = d f_j / d x_i."""
    flat = tuple(entry for row in jacobian(field) for entry in row)
    return compile_expression_stack(flat, (field.dim, field.dim))


def compile_diffusion(coeffs: CoefficientSet) -> Callable:
    """X (..., d) -> diffusion matrix (..., d, m)."""
    exprs = tuple(col.components[i] for i in range(coeffs.d) for col in coeffs.diffusion)
    return compile_expression_stack(exprs, (coeffs.d, coeffs.m))
