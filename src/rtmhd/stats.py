"""The work rtmhd does, counted where it is done.

``counts`` holds running totals since import, and nothing resets them: a
reader copies ``counts`` before the work it watches and takes ``since``
after it.  The sites: ``dpbtrf`` in ``eig.definite`` and in the Cholesky
test of ``eig.top_root``; ``dgbsv`` and ``dgtsv`` in ``eig._solve``;
``cn_factors`` and ``cn_steps`` (one per block of columns) in
``verify.LinearEvolver.__init__`` and ``.step``; ``rho_points``, the points
``DensityProfile.rho`` evaluates; ``profiles``, ``forms`` and ``modes``, in
the ``DensityProfile``, ``FormSet`` and ``NormalMode`` records built.
"""

__all__ = ["counts", "since"]

counts = dict.fromkeys(
    ("dpbtrf", "dgbsv", "dgtsv", "cn_factors", "cn_steps", "rho_points",
     "profiles", "forms", "modes"),
    0,
)


def since(before: dict) -> dict:
    """The work done since ``before``, an earlier copy of ``counts``."""
    return {name: total - before[name] for name, total in counts.items()}
