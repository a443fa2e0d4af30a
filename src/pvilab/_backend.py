"""Kernel backend: numba's ``@njit`` when numba imports, plain Python otherwise.

The hot kernels in ``_kernels`` are scalar code that numba can compile.
numba is the optional ``jit`` extra; without it the same code runs in the
interpreter with the same results, only slower.  ``backend_name()`` reports
which of the two is in effect; the CLI reports record it.
"""

try:
    from numba import njit as _numba_njit
except ImportError:  # the optional ``jit`` extra is not installed
    _numba_njit = None


def njit(func):
    return func if _numba_njit is None else _numba_njit(cache=True)(func)


def backend_name() -> str:
    return "numpy" if _numba_njit is None else "numba"
