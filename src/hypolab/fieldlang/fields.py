"""Vector fields and coefficient sets built from DSL expressions."""
from __future__ import annotations

import itertools
import linecache
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError
from .ast import (
    Binary,
    Const,
    Expression,
    Power,
    Unary,
    _literal,
    _np_lines,
    differentiate,
    evaluate,
    simplify,
    to_text,
)
from .parser import parse_expression

__all__ = [
    "VectorField",
    "CoefficientSet",
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
    Memoised per field, like the ``differentiate`` and ``simplify`` calls
    it is made of.
    """
    return tuple(
        tuple(simplify(differentiate(comp, i)) for i in range(1, field.dim + 1))
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
    tracebacks and profiles, for as long as the function lives.
    """
    try:
        source = "\n".join(emit()) + "\n"
        filename = f"<{label} #{next(_SERIAL)}>"
        code = compile(source, filename, "exec")
    except (SyntaxError, RecursionError) as exc:
        reason = exc.msg if isinstance(exc, SyntaxError) else str(exc)
        raise ConfigError(f"expression nested too deeply to compile ({reason})") from None
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"np": np}
    exec(code, namespace)
    weakref.finalize(namespace[name], linecache.cache.pop, filename, None)
    return namespace[name]


@lru_cache(maxsize=1024)
def compile_expression_stack(exprs: tuple[Expression, ...], shape: tuple[int, ...]) -> Callable:
    """Compile a flat tuple of k expressions into one generated function
    X (..., d) -> (..., *shape).

    The function reads X once as float64, assigns expression i to
    ``out[..., i]`` of one (..., k) array (a constant broadcasts), and
    reshapes to ``shape``.
    """
    k = len(exprs)

    def emit():
        lines, texts = _np_lines(exprs, "X[..., {}]")
        lines += [f"out[..., {i}] = {t}" for i, t in enumerate(texts)]
        body = ["X = np.asarray(X, np.float64)", f"out = np.empty(X.shape[:-1] + ({k},))",
                *lines, f"return out.reshape(X.shape[:-1] + {shape!r})"]
        return ["def stack(X):", *(f"    {line}" for line in body)]

    return _define("stack", f"fieldlang stack {shape}", emit)


_NEWTON_TOL, _NEWTON_MAX_ITER = 1e-12, 50

# Damped Newton for z = x + h b(z) on (d, B) stacks, each row on its own: a
# pending row takes the first of the steps 1, 1/2, ..., 2^-19 that lowers its
# residual enough, or fails.
_NEWTON = """\
def residual({z}):
    {residual}
    return f, np.sqrt(np.add.reduce(f * f))
z = np.array([{x}])
f, fnorm = residual(*z)
converged, failed = {converged}, ~np.isfinite(fnorm)
for _ in range({max_iter}):
    if not (active := ~(converged | failed)).any():
        break
    {z} = z
    {solve}
    step, pending = np.array([{d}]), active
    for r in range(20):
        c = z + 0.5 ** r * step
        g, cnorm = residual(*c)
        accept = pending & np.isfinite(cnorm) & (cnorm <= (1.0 - 1e-4 * 0.5 ** r) * fnorm)
        z, f = np.where(accept, c, z), np.where(accept, g, f)
        fnorm, pending = np.where(accept, cnorm, fnorm), pending & ~accept
        if not pending.any():
            break
    failed |= pending
    converged |= ~failed & ({converged})
{z} = z"""

# The same solve on one path in C: ``solve`` returns 1 when it converged.
_NEWTON_C = """\
static double residual(double h, {xs}, const double *z, double *f)
{{
    {z_rows}
    {residual}
    return sqrt({f_squares});
}}

static int solve(double h, {xs}, double *z)
{{
    double f[{n}], g[{n}], c[{n}];
    {start}
    double fnorm = residual(h, {x}, z, f);
    int converged = {converged}, failed = !isfinite(fnorm);
    for (int iter = 0; iter < {max_iter} && !(converged || failed); ++iter) {{
        {z_rows}
        {solve}
        const double step[{n}] = {{{d}}};
        double scale = 1.0;
        failed = 1;
        for (int r = 0; r < 20 && failed; ++r, scale *= 0.5) {{
            for (int i = 0; i < {n}; ++i)
                c[i] = z[i] + scale * step[i];
            double cnorm = residual(h, {x}, c, g);
            if (isfinite(cnorm) && cnorm <= (1.0 - {damping} * scale) * fnorm) {{
                for (int i = 0; i < {n}; ++i) {{
                    z[i] = c[i];
                    f[i] = g[i];
                }}
                fnorm = cnorm;
                failed = 0;
            }}
        }}
        converged = !failed && {converged};
    }}
    return converged && !failed;
}}
"""

# Paths per tile of C's loop: each tile draws its increments, then takes all
# its steps, so a block never holds more than a tile of increments.
C_TILE = 8

# C's loop over a block of B paths, a tile of C_TILE paths at a time.  A tile
# takes its increments from the caller's (n, m, B) block ``dw`` or, when that
# is NULL, draws them: each path's Philox stream rekeyed as
# ``brownian._struct_rekey`` rekeys it, n m standard normals with numpy's
# sampler's bits, then ``brownian._brownian_paths``' scale and running sum and
# ``simulate._block_increments``' differences, in their float operations.
# The tile's rows are stepped through all n steps: a path's new rows go to
# ``o`` and are stored only when its new state rows are finite (and its solve
# converged); otherwise the path is marked lost at k and keeps all its rows,
# as in the engine's masked step.  At each grid index in ``stops`` every row
# of the tile is copied into the (S, rows, B) snapshot ``snap``.
#
# The normals are numpy's ziggurat (``random_standard_normal`` in
# ``libnpyrandom.a``; Marsaglia and Tsang 2000).  Its fast path is inline: one
# draw r, layer idx = r & 0xff, rabs = bits 9..60, and when rabs < k[idx] the
# normal rabs w[idx] with bit 8 of r as its sign bit, set without a branch
# (numpy's ``if (sign) x = -x`` mispredicts half the time).  Any other draw,
# about 1.5% of them, goes to numpy's own sampler through a replay bitgen_t
# that hands it r first and then forwards to the Philox, so the rejection
# step and the idx-0 tail are numpy's by construction.  The tables w and k
# are local symbols of ``libnpyrandom.a``, so ``setup`` reads them off numpy's
# sampler through a scripted bitgen_t that counts its draws: k[idx] is the
# first rabs that takes more than one draw (a bisection over [0, 2^52]),
# w[idx] the output at rabs = 1, which no layer with k <= 1 accepts.  The
# script's next_double returns 0.5: at 0.0 numpy's tail loop never ends.
# ``setup`` then checks the sampler against numpy's normals of a fixed
# stream, and the engine uses the loop only if they agree bit for bit.
_C_RUN = """\
#include <math.h>
#include <stdint.h>
#include <string.h>
#include <numpy/random/distributions.h>
{newton}
static double zig_w[256];
static uint64_t zig_k[256];

typedef struct {{
    bitgen_t *bitgen;
    uint64_t first;
    int pending;
}} replay_t;

static uint64_t replay_uint64(void *st)
{{
    replay_t *p = st;
    if (p->pending) {{
        p->pending = 0;
        return p->first;
    }}
    return p->bitgen->next_uint64(p->bitgen->state);
}}

static uint32_t replay_uint32(void *st)
{{
    replay_t *p = st;
    return p->bitgen->next_uint32(p->bitgen->state);
}}

static double replay_double(void *st)
{{
    replay_t *p = st;
    return p->bitgen->next_double(p->bitgen->state);
}}

static uint64_t replay_raw(void *st)
{{
    replay_t *p = st;
    return p->bitgen->next_raw(p->bitgen->state);
}}

static double normal_again(bitgen_t *bitgen, uint64_t r)
{{
    replay_t replay = {{bitgen, r, 1}};
    bitgen_t again = {{&replay, replay_uint64, replay_uint32, replay_double, replay_raw}};
    return random_standard_normal(&again);
}}

static inline double normal(bitgen_t *bitgen)
{{
    const uint64_t r = bitgen->next_uint64(bitgen->state);
    const int idx = r & 0xff;
    const uint64_t rabs = (r >> 9) & 0x000fffffffffffffULL;
    if (rabs >= zig_k[idx])
        return normal_again(bitgen, r);
    union {{ double x; uint64_t u; }} v = {{(double)(int64_t)rabs * zig_w[idx]}};
    v.u ^= (r & 0x100) << 55;
    return v.x;
}}

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

static void rekey(uint64_t *words, uint64_t seed, uint64_t id)
{{
    uint64_t *ctr = (uint64_t *)words[0], *key = (uint64_t *)words[1];
    ctr[0] = ctr[1] = ctr[2] = ctr[3] = 0;  /* purpose 0: the base increments */
    key[0] = seed;
    key[1] = id;
    words[2] = 4;  /* the output buffer exhausted */
    for (int i = 3; i < 8; ++i)
        words[i] = 0;
}}

int setup(bitgen_t *bitgen, uint64_t *philox, uint64_t seed, uint64_t id, int64_t count,
          const double *want)
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
    rekey(philox, seed, id);
    for (int64_t i = 0; i < count; ++i) {{
        x = normal(bitgen);
        if (memcmp(&x, want + i, sizeof x))
            return 0;
    }}
    return 1;
}}

void run(const double *s, double *snap, const int64_t *stops, int64_t S, const double *dw,
         bitgen_t *bitgen, uint64_t *philox, uint64_t seed, const uint64_t *ids, double scale,
         double h, int64_t B, int64_t n, int64_t *diverged, const double *T, double *work)
{{
    double *nrm = work, *inc = work + n * {m};  /* n m normals, then (n, m, tile) */
    for (int64_t b0 = 0; b0 < B; b0 += {tile}) {{
        const int64_t width = B - b0 < {tile} ? B - b0 : {tile};
        double st[{rows} * {tile}];
        for (int64_t g = 0; g < width; ++g) {{
            for (int r = 0; r < {rows}; ++r)
                st[r * {tile} + g] = s[b0 + g + r * B];
            if (dw) {{
                for (int64_t i = 0; i < n * {m}; ++i)
                    inc[i * {tile} + g] = dw[i * B + b0 + g];
                continue;
            }}
            rekey(philox, seed, ids[b0 + g]);
            for (int64_t i = 0; i < n * {m}; ++i)
                nrm[i] = normal(bitgen);
            for (int j = 0; j < {m}; ++j) {{
                double w = 0.0;  /* W(t_k); the first is W_1 itself, as cumsum's */
                for (int64_t k = 0; k < n; ++k) {{
                    const double next = k ? w + scale * nrm[k * {m} + j] : scale * nrm[j];
                    inc[(k * {m} + j) * {tile} + g] = next - w;
                    w = next;
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
            const double *dwk = inc + k * {m} * {tile};
            for (int64_t g = 0; g < width; ++g) {{
                if (diverged[b0 + g] >= 0)
                    continue;
                double o[{rows}];
                int ok = 1;
                {body}
                for (int r = 0; r < {state}; ++r)
                    ok = ok && isfinite(o[r]);
                if (!ok) {{
                    diverged[b0 + g] = k;
                    continue;
                }}
                for (int r = 0; r < {rows}; ++r)
                    st[r * {tile} + g] = o[r];
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


def _newton_source(drift: VectorField, c: bool = False):
    """``_NEWTON`` for ``drift`` as numpy lines, or with ``c`` ``_NEWTON_C`` as
    text; its elimination skips the constant 0s."""
    d, grad, let = drift.dim, jacobian(drift), _Let(c)
    a = {(p, q) for p in range(d) for q in range(d)
         if p == q or not (isinstance(grad[p][q], Const) and grad[p][q].value == 0.0)}
    solve, texts = _np_lines([grad[p][q] for p, q in sorted(a)], "z{}", "ta", c)
    solve += [let(f"a{p}_{q}", f"{float(p == q)!r} - h * {t}")
              for (p, q), t in zip(sorted(a), texts)]
    residual, texts = _np_lines(drift.components, "z{}", "tr", c)
    solve += [let(f"r{i}", f"-f[{i}]") for i in range(d)]
    for k in range(d):  # forward elimination, the right-hand side alongside
        for i in (i for i in range(k + 1, d) if (i, k) in a):
            # np.divide, as a constant pivot is a float: 1.0 / 0.0 gives inf, not an error
            ratio = f"a{i}_{k} / a{k}_{k}" if c else f"np.divide(a{i}_{k}, a{k}_{k})"
            solve.append(let("l", ratio))
            for j in (j for j in range(k + 1, d) if (k, j) in a):
                entry = f"a{i}_{j}" if (i, j) in a else "0.0"
                solve.append(let(f"a{i}_{j}", f"{entry} - l * a{k}_{j}"))
                a.add((i, j))
            solve.append(let(f"r{i}", f"r{i} - l * r{k}"))
    for i in reversed(range(d)):  # back substitution, later columns first
        terms = "".join(f" - a{i}_{j} * d{j}" for j in reversed(range(i + 1, d)) if (i, j) in a)
        solve.append(let(f"d{i}", f"(r{i}{terms}) / a{i}_{i}"))
    names = {v: ", ".join(f"{v}{i}" for i in range(d)) for v in "xzd"}
    f = [f"z{i} - x{i} - h * {t}" for i, t in enumerate(texts)]
    if c:
        def squares(v):  # in index order, as numpy's add.reduce over the rows
            return " + ".join(f"{v}[{i}] * {v}[{i}]" for i in range(d))

        return _NEWTON_C.format(
            **names, n=d, xs=", ".join(f"double x{i}" for i in range(d)),
            z_rows=" ".join(f"double z{i} = z[{i}];" for i in range(d)),
            residual="\n    ".join(residual + [f"f[{i}] = {t};" for i, t in enumerate(f)]),
            f_squares=squares("f"), start=" ".join(f"z[{i}] = x{i};" for i in range(d)),
            converged=f"fnorm <= {_literal(_NEWTON_TOL, c)} * (1.0 + sqrt({squares('z')}))",
            damping=_literal(1e-4, c), max_iter=_NEWTON_MAX_ITER, solve="\n        ".join(solve),
        )
    return _NEWTON.format(
        **{v: text + "," for v, text in names.items()},
        residual="".join(f"{line}\n    " for line in residual)
        + "f = np.array([" + ", ".join(f) + "])",
        converged=f"fnorm <= {_NEWTON_TOL!r} * (1.0 + np.sqrt(np.add.reduce(z * z)))",
        max_iter=_NEWTON_MAX_ITER, solve="\n    ".join(solve),
    ).splitlines()


def _step_source(coeffs: CoefficientSet, scheme: str, flows: bool, covariance: bool,
                 identity: bool = False, remainder: tuple | None = None,
                 square_norm: bool = False, c: bool = False) -> list[str]:
    """The source lines of ``compile_step_kernel``'s step, or with ``c`` of
    ``step_kernel_c``'s loop: one emission, in which only the statements'
    form depends on ``c``.  numpy's statements act on rows of B paths and
    write the new rows to ``out``; C's act on one path's doubles and write
    them to ``o``, which ``_C_RUN`` stores when the state rows are finite."""
    d, m = coeffs.d, coeffs.m
    implicit = scheme == "split-step-backward-euler"
    sigma = [[col.components[q] for col in coeffs.diffusion] for q in range(d)]
    pairs = [(p, r) for p in range(d) for r in range(d)]
    upper = [(p, r) for p, r in pairs if p <= r]
    let, one, sqrt = _Let(c), _literal(1.0, c), "sqrt" if c else "np.sqrt"
    rows = [f"x{i}" for i in range(d)]
    rows += [f"{M}{p}_{r}" for M in "JK" for p, r in pairs if flows]
    rows += [f"C{p}_{r}" for p, r in upper if covariance]
    state = len(rows)
    rows += ["sup"] * identity
    if remainder:
        target, prefixes, indices = remainder
        integral = {e: "I" + "_".join(map(str, e)) for e in prefixes}
        rows += ["cum", "E", *integral.values()]
    rows += ["xsup"] * square_norm
    if c:
        body = [let(name, f"st[g + {n} * {C_TILE}]") for n, name in enumerate(rows)]
        body += [let(f"dw{i}", f"dwk[g + {i} * {C_TILE}]") for i in range(m)]
        if implicit:
            body += [f"double z[{d}];",
                     f"ok = solve(h, {', '.join(f'x{i}' for i in range(d))}, z);"]
            body += [let(f"z{i}", f"z[{i}]") for i in range(d)]
    else:
        body = [f"{name} = s[{n}]" for n, name in enumerate(rows)]
        body += [f"dw{i} = dw[{i}]" for i in range(m)]
        body += _newton_source(coeffs.drift) if implicit else []
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

    def update(name, op, terms, first=None):  # out's row ``name`` = first op terms
        first, row = first or name, rows.index(name)
        if c:
            sign = "+" if op == "add" else "-"
            body.append(f"o[{row}] = ({first}) {sign} ({terms});" if terms
                        else f"o[{row}] = {first};")
        else:
            body.append(f"np.{op}({first}, {terms}, out=out[{row}])" if terms
                        else f"out[{row}] = {first}")

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
    if flows:
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
    if covariance:
        S = [[total((mul(f"K{p}_{q}", factor(sigma[q][i])) for q in range(d)), f"S{p}_{i}")
              for i in range(m)] for p in range(d)]
        for p, r in upper:
            terms = total(mul(S[p][i], S[r][i]) for i in range(m))
            update(f"C{p}_{r}", "add", terms and f"h * ({terms})")

    def new(name):  # the row ``name`` at k + 1
        return f"{'o' if c else 'out'}[{rows.index(name)}]"

    def store(name, text):
        body.append(f"{new(name)} = {text}{';' * c}")

    def running_max(name, value):  # numpy's maximum: a NaN on either side wins
        store(name, f"(isnan({name}) || {name} >= {value}) ? {name} : {value}" if c
              else f"np.maximum({name}, {value})")

    if identity:  # the running max of |K J - I|: squares summed row-major in (p, r), then sqrt
        for p, r in pairs:
            kj = " + ".join(f"{new(f'K{p}_{q}')} * {new(f'J{q}_{r}')}" for q in range(d))
            body.append(let(f"D{p}_{r}", f"{kj} - {one}" if p == r else kj))
        squares = " + ".join(f"D{p}_{r} * D{p}_{r}" for p, r in pairs)
        body.append(let("defect", f"{sqrt}({squares})"))
        running_max("sup", "defect")
    if square_norm:  # the running max of |X|^2, summed in index order as np.add.reduce
        body.append(let("xsq", " + ".join(f"{new(f'x{i}')} * {new(f'x{i}')}" for i in range(d))))
        running_max("xsup", "xsq")
    ystart = len(body)
    if remainder:
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
        finite = f"np.isfinite(out[:{state}]).all(axis=0)"
        body.append(f"return {finite} & converged & ~failed" if implicit else f"return {finite}")
    for at, where in (("y", ystart), ("z", start), ("x", start)):  # x's entries come first
        group = {e: n for (e, place), n in names.items() if place == at}
        lines, texts = _np_lines(tuple(group), at + "{}", "t" + at, c)
        body[where:where] = lines + [let(n, t) for n, t in zip(group.values(), texts)]
    if not c:
        return ["def step(s, out, dw, h, T=None):", *(f"    {line}" for line in body)]
    return _C_RUN.format(
        newton=_newton_source(coeffs.drift, c=True) if implicit else "", m=m,
        rows=len(rows), state=state, tile=C_TILE, body="\n                ".join(body),
    ).splitlines()


@lru_cache(maxsize=256)
def compile_step_kernel(
    coeffs: CoefficientSet, scheme: str, flows: bool, covariance: bool,
    identity: bool = False, remainder: tuple | None = None, square_norm: bool = False,
) -> Callable:
    """One generated step ``step(s, out, dw, h, T=None)`` of the ensemble engine.

    ``s`` holds a block's state as rows of B paths: X (d rows), then with
    ``flows`` J and K (d*d rows each), then with ``covariance`` too C's upper
    triangle, all row-major.  The step writes to ``out`` X + drift + noise
    under ``scheme`` (noise sigma(z) dW at the split-step scheme's solved
    point ``z``), J + A J, K - K G and C + h S S^T with S = K sigma(X), for
    the (m, B) increments ``dw``, and returns the mask of paths whose new
    state is finite and whose split-step solve converged.  That solve does
    not pivot: ``SimConfig`` refuses h L >= 1 for a monotone bound L, so the
    symmetric part of I - h grad b is at least (1 - h L) I, and the LU
    factorisation exists without pivoting (Golub and Van Loan); a zero or
    non-finite pivot fails its own row only.  Each subexpression of b,
    sigma, grad b and grad sigma_i is evaluated once; each product with a
    constant-0 factor (of either sign) is left out, as is a factor 1.0; sums
    add the rest in ascending index order.  numpy's axis sums start from
    0.0, which can only turn a sum of zeros into +0.0: the noise keeps it as
    ``+ 0.0``, so X keeps its bits, and entries of J, K and C, which start
    at 0.0 or 1.0, can never become -0.0.

    Record rows follow the state and never decide whether a path is lost.
    ``identity`` adds the running max of |K J - I|, its squares summed
    row-major in (p, r), then ``sqrt``.  ``remainder = (target, prefixes,
    indices)`` adds ``integrals.RemainderEnergy``'s rows cum, E and I_e per
    prefix: I_{e j} += (I_e + I_e')/2 dW^j (dW^0 = h) in ``prefixes`` order,
    R = K' target(X') - sum_a T[a] I_{indices[a]}', E' = |R|^2 and cum +=
    (E + E') h / 2, ' marking new rows and ``T`` being the (len(indices), d)
    coefficients: the stored-path oracle's float operations, but for the
    sign of a zero R, which E squares away.  ``square_norm`` adds, last, the
    running max of |X|^2, summed in index order as ``np.add.reduce`` sums.

    ``step_kernel_c`` renders the same lines as C, one path at a time, and
    the engine runs that loop, which also draws the increments, wherever it
    can.  This step runs for models or remainder targets with sin, cos, exp
    or tanh, where the C loop could not be built or failed its probe, and
    as the native loop's oracle.
    """
    label = (f"hypolab step d={coeffs.d} m={coeffs.m} {scheme}" + " JK" * flows + " C" * covariance
             + " sup" * identity + " R" * bool(remainder) + " |X|^2" * square_norm)
    return _define("step", label, lambda: _step_source(coeffs, scheme, flows, covariance,
                                                       identity, remainder, square_norm))


@lru_cache(maxsize=256)
def step_kernel_c(coeffs: CoefficientSet, scheme: str, flows: bool, covariance: bool,
                  identity: bool = False, remainder: tuple | None = None,
                  square_norm: bool = False):
    """C source of the block loop ``run``, or None when a field or the
    remainder target uses sin, cos, exp or tanh.

    ``run(s, snap, stops, S, dw, bitgen, philox, seed, ids, scale, h, B, n,
    diverged, T, work)`` takes all n steps of a block of B paths, a tile of
    ``C_TILE`` paths at a time.  ``s`` is the (rows, B) initial state of
    ``compile_step_kernel``; the rows at the S ascending grid indices
    ``stops`` go to the (S, rows, B) ``snap``.  The increments are the
    caller's (n, m, B) ``dw``, or, when ``dw`` is NULL, drawn per path from
    the numpy Philox ``bitgen`` (its ``bitgen_t``) and its state struct
    ``philox``, keyed by (``seed``, ``ids[b]``) with counter block 0, and
    scaled by ``scale`` = sqrt h: the bits of
    ``simulate._block_increments``.  The library's ``setup(bitgen,
    philox, seed, id, count, want)`` must run first: it reads numpy's
    ziggurat tables and returns 1 when the ``count`` normals of the stream
    (``seed``, ``id``) are the bits of ``want``.  ``diverged`` holds the (B,) int64
    steps at which paths were lost, -1 for none, ``T`` the remainder's
    coefficients and ``work`` room for (``C_TILE`` + 1) n m doubles.

    Each step is ``compile_step_kernel``'s, line by line, on one path's
    doubles: the same operations in the same order, constants as exact
    hexadecimal literals, and the split-step solve with the same schedule.
    A path whose new X, J, K or C has a non-finite entry, or whose solve
    fails, gets ``diverged = k`` and keeps all its rows, records too; a lost
    path is not stepped again.  Compiled without contraction into fused
    multiply-adds (``-ffp-contract=off``), every operation rounds as numpy's
    does, so the bits agree; the engine checks that on a probe block before
    it uses the loop.
    """
    fields = (coeffs.drift, *coeffs.diffusion, *(remainder[:1] if remainder else ()))
    if not all(_rational(e) for f in fields for e in f.components):
        return None
    source = _step_source(coeffs, scheme, flows, covariance, identity, remainder, square_norm,
                          c=True)
    return "\n".join(source) + "\n"


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
