"""Generated C code built once per user and loaded with ctypes, and
generated Python compiled once per user.

``load(source, functions)`` returns the C functions of a shared library
built from ``source``, or None when there is no compiler, numpy's C random
API is missing, the build fails or no cache directory can be trusted.
Every library links numpy's ``libnpyrandom.a`` (numpy's "Extending" page),
so generated code can drive numpy's own samplers through a ``bitgen_t``:
it is compiled against numpy's ``random/bitgen.h`` alone, and declares the
samplers it calls, so no build reads Python's headers.  The engine's loop
(``fieldlang.step_kernel_c``) draws its normals with numpy's ziggurat on
the words of numpy's Philox4x64-10, which it computes itself for each
path: the fast path inline, without numpy's branch on the sign, and every
other draw by numpy's ``random_standard_normal`` through a ``bitgen_t``
over the same words, set back to the draw's first word.  The ziggurat's
tables are local symbols of ``libnpyrandom.a``, so the library's ``setup``
reads them once per load off numpy's sampler, with scripted draws, then
draws a fixed stream as the loop does and checks it against numpy's
normals; it passes only if that stream also took the slow path on the bulk
words and drew past them (see ``fieldlang.fields._C_RUN``).  The
loop steps a tile of paths as vector lanes; on x86-64 with glibc it is
built for AVX-512F, AVX2 and the baseline at once, and the loader picks
the widest one the CPU has, so one cached library serves every x86-64 CPU.

Libraries are cached by content: the file name is the sha256 of the
source, the flags, numpy's include and link flags and version, and the
compiler's resolved path and modification time, so a warm cache starts no
process.  The cache is ``~/.cache/hypolab/native``, or
``hypolab-native-<uid>`` in the temp directory when that cannot be made; a
directory is used only if it is ours and writable by nobody else.  A
library is compiled in a temporary directory in the cache and renamed into
place, so a reader never sees half of one, and its sha256 is kept beside
it: a library that no longer has that digest is built again.  Loading a
library touches it; after a build, only the ``KEEP`` most recently loaded
libraries stay.  A library is read and mapped under a shared ``flock``,
and the eviction skips every library it cannot lock exclusively, so none
is removed while a process loads it.

``compiled(source, filename)`` is ``compile(source, filename, "exec")`` for
the engine's generated numpy kernels (``fieldlang.fields._define``), kept
in the same cache: the file name is the sha256 of the interpreter's
version, bytecode tag and optimisation level and of the source, and the
file holds the code object's sha256, then the code object as ``marshal``
writes it.  A file is written by a rename, and one that no longer has its
digest is compiled and written again; the code read is given this
process's ``filename``, nested code objects included, so ``linecache``
and tracebacks still show the source.  A source that fails to compile
raises as ``compile`` does and is never cached.  A read touches the file,
and after a write only the ``KEEP`` most recently loaded kernels stay,
counted apart from the libraries.  The cache holds build artefacts only:
whether a library's loop passes its probe is checked in every process.

Nothing here runs at import: the engine calls ``load`` on the first block
that can use it, and ``compiled`` on the first that needs a numpy kernel.
Tests point ``COMPILER`` or ``CACHE`` elsewhere.
"""
from __future__ import annotations

import ctypes
import fcntl
import hashlib
import marshal
import os
import shutil
import stat
import sys
import tempfile
import time
import types

import numpy as np

COMPILER = "cc"
CACHE: str | None = None  # None: the per-user default above
# No fast-math, no -march=native: each operation rounds as written, so the
# bits are numpy's; -ffp-contract=off keeps a * b + c from fusing.  Vector
# widths come from the loop's own per-CPU clones.  -fno-math-errno lets sqrt
# be vectorised: it rounds correctly either way, and errno is never read.
FLAGS = ("-O2", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120
# Libraries a build leaves in the cache: the most recently loaded ones, about
# 80 KiB each with the loop's three clones.  (A full test run uses about 130.)
# As many compiled kernels stay beside them.
KEEP = 256
# The suffix of a compiled kernel's file: its code object's sha256, then the
# code object as ``marshal`` writes it.
_CODE = ".code"


def load(source: str, functions: dict) -> tuple | None:
    """The C functions of ``source`` built as a shared library, one for each
    ``name: (restype, argtypes)`` of ``functions`` in its order, or None."""
    compiler, path, flags = _locate(source)
    if path is None:
        return None
    library = _map(path)
    if library is None and _build(compiler, source, path, flags):
        library = _map(path)
        _evict(os.path.dirname(path))
    if library is None:
        return None
    try:
        loaded = tuple(getattr(library, name) for name in functions)
    except AttributeError:
        return None
    for fn, (restype, argtypes) in zip(loaded, functions.values()):
        fn.restype, fn.argtypes = restype, argtypes
    return loaded


def compiled(source: str, filename: str) -> types.CodeType:
    """``compile(source, filename, "exec")``, read from the cache when a process
    has compiled ``source`` on this interpreter before, with ``filename`` given
    to it and to the code objects it holds.  A source that fails to compile
    raises as ``compile`` does, and is never cached."""
    key = hashlib.sha256()
    for part in (sys.version, sys.implementation.cache_tag, str(sys.flags.optimize), source):
        key.update(part.encode() + b"\0")
    directory = _cache_dir()
    path = directory and os.path.join(directory, key.hexdigest() + _CODE)
    code = path and _read_code(path)
    if code:
        return _renamed(code, filename)
    # with this module's __future__ imports, which are fields.py's
    code = compile(source, filename, "exec")
    if path and _write_code(path, code):
        _evict(directory)
    return code


def _read_code(path: str) -> types.CodeType | None:
    """The code object at ``path``, touched, or None when it is missing or
    lacks the sha256 it was written with."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
            if hashlib.sha256(blob[32:]).digest() != blob[:32]:
                return None
            now = time.time_ns()
            os.utime(fh.fileno(), ns=(now, now))  # recently loaded: the last to be evicted
        code = marshal.loads(blob[32:])
    except (OSError, EOFError, ValueError):
        return None
    return code if isinstance(code, types.CodeType) else None


def _write_code(path: str, code: types.CodeType) -> bool:
    """Write ``code`` to ``path`` by a rename, so a reader never sees half of
    it; False when it could not be written."""
    data = marshal.dumps(code)
    try:
        with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as work:
            with open(os.path.join(work, "kernel.code"), "wb") as fh:
                fh.write(hashlib.sha256(data).digest() + data)
            os.replace(fh.name, path)
        return True
    except OSError:
        return False


def _renamed(code: types.CodeType, filename: str) -> types.CodeType:
    """``code`` with ``filename`` as its file name and its nested code objects'."""
    consts = tuple(_renamed(c, filename) if isinstance(c, types.CodeType) else c
                   for c in code.co_consts)
    return code.replace(co_filename=filename, co_consts=consts)


def _numpy_random_flags() -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """The include and the link flags of numpy's C random API, or None when
    ``bitgen.h`` or ``libnpyrandom.a`` is missing."""
    include = np.get_include()
    lib = os.path.join(os.path.dirname(np.__file__), "random", "lib")
    needed = (os.path.join(include, "numpy", "random", "bitgen.h"),
              os.path.join(lib, "libnpyrandom.a"))
    if not all(os.path.isfile(path) for path in needed):
        return None
    return (f"-I{include}",), (f"-L{lib}", "-lnpyrandom")


def _map(path: str) -> ctypes.CDLL | None:
    """The library at ``path``, loaded and touched, or None when it is missing
    or lacks the sha256 recorded when it was built.  The loader maps a file
    as its headers describe it, so a truncated library would crash the process
    rather than fail to load.  A shared lock is held while the library is read
    and mapped: ``_evict`` leaves a locked library alone."""
    try:
        with open(path, "rb") as lib, open(path + ".sha256", encoding="ascii") as digest:
            fcntl.flock(lib, fcntl.LOCK_SH)
            if os.fstat(lib.fileno()).st_nlink == 0:  # evicted before the lock was taken
                return None
            if hashlib.sha256(lib.read()).hexdigest() != digest.read():
                return None
            now = time.time_ns()  # the file system's own clock may tick in milliseconds
            os.utime(lib.fileno(), ns=(now, now))  # recently loaded: the last to be evicted
            return ctypes.CDLL(path)
    except OSError:
        return None


def _evict(directory: str) -> None:
    """Remove the libraries of ``directory``, with their digests, but for the
    ``KEEP`` most recently loaded ones and any that a process is loading; and
    its compiled kernels but for the ``KEEP`` most recently loaded ones."""
    kinds = {".so": [], _CODE: []}
    try:
        with os.scandir(directory) as entries:
            for entry in entries:
                kind = kinds.get(os.path.splitext(entry.name)[1])
                if kind is not None:
                    kind.append((entry.stat(follow_symlinks=False).st_mtime_ns, entry.path))
    except OSError:
        return
    for _, path in sorted(kinds[_CODE], reverse=True)[KEEP:]:
        try:
            os.unlink(path)  # a process reading it reads it whole all the same
        except OSError:
            continue
    for _, path in sorted(kinds[".so"], reverse=True)[KEEP:]:
        try:
            with open(path, "rb") as lib:
                fcntl.flock(lib, fcntl.LOCK_EX | fcntl.LOCK_NB)  # OSError while it is loaded
                os.unlink(path)  # the library first: a digest without it is never read
            os.unlink(path + ".sha256")
        except OSError:
            continue


def _locate(source: str) -> tuple[str | None, str | None, tuple | None]:
    """The compiler's resolved path, the library's path in the cache and
    numpy's include and link flags."""
    compiler, flags = shutil.which(COMPILER), _numpy_random_flags()
    directory = _cache_dir() if compiler and flags else None
    if directory is None:
        return None, None, None
    compiler = os.path.realpath(compiler)
    try:
        mtime = os.stat(compiler).st_mtime_ns
    except OSError:
        return None, None, None
    key = hashlib.sha256()
    for part in (source, *FLAGS, *flags[0], *flags[1], np.__version__, compiler, str(mtime)):
        key.update(part.encode() + b"\0")
    return compiler, os.path.join(directory, key.hexdigest() + ".so"), flags


def _cache_dir() -> str | None:
    candidates = [CACHE]
    if CACHE is None:
        home = os.path.expanduser("~")  # "~" itself when there is no home
        candidates = [os.path.join(tempfile.gettempdir(), f"hypolab-native-{os.getuid()}")]
        if os.path.isabs(home):
            candidates.insert(0, os.path.join(home, ".cache", "hypolab", "native"))
    for path in candidates:
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
            st = os.lstat(path)
        except OSError:
            continue
        # a directory of ours, not a link, that no one else can write into
        if stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022:
            return path
    return None


def _build(compiler: str, source: str, path: str, flags: tuple) -> bool:
    """Compile ``source`` with the include and link ``flags`` to ``path``, with
    its sha256 beside it; False when the compiler fails."""
    import subprocess  # only a build needs it: a warm run does without

    try:
        with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as work:
            with open(os.path.join(work, "kernel.c"), "w", encoding="utf-8") as fh:
                fh.write(source)
            include, link = flags
            command = [compiler, *FLAGS, *include, "-o", "kernel.so", "kernel.c", *link, "-lm"]
            # run waits for the compiler, and kills it on timeout
            subprocess.run(command, cwd=work, check=True, stdin=subprocess.DEVNULL,
                           capture_output=True, timeout=_BUILD_TIMEOUT_S)
            with open(os.path.join(work, "kernel.so"), "rb") as lib, \
                    open(os.path.join(work, "kernel.sha256"), "w", encoding="ascii") as digest:
                digest.write(hashlib.sha256(lib.read()).hexdigest())
            # the library first: a digest without its library is never read
            os.replace(os.path.join(work, "kernel.so"), path)
            os.replace(os.path.join(work, "kernel.sha256"), path + ".sha256")
        return True
    except (OSError, subprocess.SubprocessError):
        return False
