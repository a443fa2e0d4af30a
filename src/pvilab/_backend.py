"""Kernel backend: numba's ``@njit`` when numba imports, plain Python otherwise.

The scalar kernels in ``_kernels`` are code that numba can compile.  numba
is the optional ``jit`` extra; without it the same code runs in the
interpreter with the same results, only slower.  The batch kernel
``_kernels.z2_many`` is NumPy code and runs the same way under both.
``backend_name()`` reports which of the two is in effect for the scalar
kernels; the CLI reports record it.
"""

try:
    from numba import njit as _numba_njit
except ImportError:  # the optional ``jit`` extra is not installed
    _numba_njit = None


def njit(func):
    return func if _numba_njit is None else _numba_njit(cache=True)(func)


def backend_name() -> str:
    return "numpy" if _numba_njit is None else "numba"
