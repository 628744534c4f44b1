"""Build and load the compiled kernel in ``_kernel.c``.

On its first call :func:`load` compiles the C file with the local gcc and
links it against numpy's ``libnpyrandom.a``, whose routines draw the
Brownian increments of the step loop and the holds of the regime walk: the
kernel takes the fast path of numpy's ziggurats inline, with the tables that
``seqir_ziggurat`` reads out of those routines and checks against them, and
hands them the rest.  It caches the shared object in a
private per-user directory (``$XDG_CACHE_HOME/seqirsim``, else
``~/.cache/seqirsim``, mode 0700) under a name derived from the sha256 of
source, flags, machine, numpy version and archive, and loads it through
ctypes.  A load refreshes the kernel's modification time, and a build
removes the other kernels of the cache not loaded for ``STALE_DAYS``.  It
loads whole or not at all: any failure (a compiler without 128-bit
integers, or tables that fail their check, too) leaves it unavailable with
a one-line reason, and every caller steps, walks and formats in Python
instead.
``integrate.simulate``, ``integrate.simulate_deterministic``, the chain
samplers and the CSV writer ``cli._write_csv`` import this module on first
use, so importing the package neither builds nor loads the kernel.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
CC = "gcc"
#: no fast-math and no fused multiply-add, so C rounds exactly as Python does
FLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")
#: the distribution routines that np.random.Generator itself calls
ARCHIVE = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_D = ctypes.c_double
#: symbol -> (argument types, result type)
_SIGNATURES = {
    "seqir_run": ((_P, _I64, _D, _P, ctypes.c_int, _D, ctypes.c_int, _P, _P, ctypes.c_int),
                  ctypes.c_int),
    "seqir_rk4": ((_P, _D, _P, _P, _I64, _P, _P), ctypes.c_int),
    "seqir_walk": ((_P, _P, ctypes.c_int, _P, _P, _I64, _D, _D, _P, _P, _P, _P, _I64, _P),
                   _I64),
    "seqir_csv": ((_P, _P, _P, _I64, _I64, _I64, _P, _P, _P), _I64),
    "seqir_ziggurat": ((_P,), ctypes.c_int),
}
#: a cached kernel that has not been loaded for this many days is removed
#: after the next build
STALE_DAYS = 30
#: 64-bit words of the ziggurat_t of _kernel.c: wi, ki, we, ke, 256 each
ZIGGURAT_WORDS = 1024


class KernelUnavailable(Exception):
    """The kernel could not be built or loaded; the message says why."""


def _private_dir() -> Path:
    """The cache directory, created 0700; refused unless only we can write it."""
    path = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "seqirsim"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError as exc:
        raise KernelUnavailable(f"cannot create cache directory {path}: {exc}") from exc
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise KernelUnavailable(f"cache directory {path} is writable by other users")
    return path


def _build(source: bytes, target: Path) -> None:
    """Compile ``source`` and link ``ARCHIVE`` to a unique temporary name, then
    move it to ``target``."""
    cc = shutil.which(CC)
    if cc is None:
        raise KernelUnavailable(f"C compiler {CC!r} not found")
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        res = subprocess.run([cc, *FLAGS, "-o", tmp, "-x", "c", "-", "-x", "none",
                              str(ARCHIVE), "-lm"],
                             input=source, capture_output=True, timeout=120)
        if res.returncode != 0:
            lines = res.stderr.decode(errors="replace").strip().splitlines()
            raise KernelUnavailable(f"{CC} failed: {lines[0] if lines else 'no output'}")
        os.replace(tmp, target)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise KernelUnavailable(f"{CC} could not run: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _evict(kept: Path) -> None:
    """Remove every other ``kernel-*.so`` of the cache that has not been
    loaded for ``STALE_DAYS`` days; a removal that fails, or that another
    process makes first, is left alone."""
    stale = time.time() - STALE_DAYS * 86400
    for path in kept.parent.glob("kernel-*.so"):
        try:
            if path != kept and path.stat().st_mtime < stale:
                path.unlink()
        except OSError:
            pass


def _open():
    """Build the kernel unless the cache holds it, then load it."""
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        raise KernelUnavailable(f"kernel source missing: {exc}") from exc
    try:
        archive = hashlib.sha256(ARCHIVE.read_bytes()).hexdigest()
    except OSError as exc:
        raise KernelUnavailable(f"numpy random library missing: {exc}") from exc
    key = hashlib.sha256(b"\0".join([source, " ".join(FLAGS).encode(),
                                     platform.machine().encode(),
                                     np.__version__.encode(), archive.encode()])).hexdigest()
    target = _private_dir() / f"kernel-{key[:32]}.so"
    try:
        os.utime(target)  # the kernel in use is never stale
    except FileNotFoundError:
        _build(source, target)
        _evict(target)
    except OSError:
        pass
    try:
        lib = ctypes.CDLL(str(target))
        for name, (argtypes, restype) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
    except (OSError, AttributeError) as exc:
        raise KernelUnavailable(f"cannot load {target}: {exc}") from exc
    lib.ziggurat = np.zeros(ZIGGURAT_WORDS, dtype=np.uint64)
    bad = lib.seqir_ziggurat(lib.ziggurat.ctypes.data)
    if bad:
        kind, box = ("normal", bad - 1) if bad <= 256 else ("exponential", bad - 257)
        raise KernelUnavailable(f"the ziggurat tables read from numpy's {kind} routine "
                                f"draw differently from it in box {box}")
    return lib


@functools.cache
def load():
    """``(library, None)`` once the kernel is loaded, else ``(None, reason)``.

    The library exposes ``seqir_run``, ``seqir_rk4``, ``seqir_walk`` and
    ``seqir_csv``, typed; a loaded library runs all four, and ``None`` leaves
    all four to their Python references.  ``seqir_run`` steps one or two
    members per call, in the lanes of a 16-byte vector, with no flag beyond
    ``FLAGS``.  ``seqir_run`` and ``seqir_walk``
    take the address of ``library.ziggurat``: the fast-path tables of
    numpy's normal and exponential ziggurats, which ``seqir_ziggurat`` reads
    out of numpy's routines on scripted words and then checks against them,
    word for word, at both ends of every box's fast path (well under 1 ms).
    Tables that fail the check leave the kernel unavailable."""
    try:
        return _open(), None
    except KernelUnavailable as exc:
        return None, str(exc)
