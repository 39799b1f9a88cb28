"""The three LAPACK routines rtmhd calls, without ``scipy.linalg``'s start-up.

Importing ``scipy.linalg`` loads its array-API layer, ``numpy.f2py`` and
more; the routines themselves live in scipy's compiled ``_flapack``
extension.  That extension is taken from ``sys.modules`` if it is already
loaded, and otherwise loaded from its file inside the ``scipy`` package
without importing ``scipy.linalg``.  Either way these are scipy's own
routines (the interpreter keeps one copy of an extension module, so a later
``scipy.linalg`` import hands out the same objects), and every result is
bitwise the same.  Any failure falls back to the public import, so a change
in scipy's layout costs start-up time, never correctness.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

__all__ = ["dgbsv", "dgtsv", "dpbtrf"]

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    (root,) = importlib.util.find_spec("scipy").submodule_search_locations
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(root, "linalg", "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(_NAME, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no {_NAME} extension under {root}")


try:
    _flapack = _load_flapack()
    dgbsv, dgtsv, dpbtrf = _flapack.dgbsv, _flapack.dgtsv, _flapack.dpbtrf
except Exception:  # any layout or loader surprise: take the public route
    from scipy.linalg.lapack import dgbsv, dgtsv, dpbtrf
