"""``repro lint``: repo-specific invariant lint (rules R1, R3-R6).

The rules encode cross-cutting invariants that ordinary linters cannot
see because they span files, languages and runtime registries:

========  ==========================================================
rule ID   invariant
========  ==========================================================
``R1``    job-key completeness: every field of a frozen, keyed
          dataclass is folded into ``to_dict``/``content_key`` or
          explicitly listed in ``KEY_EXCLUDED``
``R3``    hot-path hygiene: ``__slots__`` in hot modules,
          ``slots=True`` dataclasses, no module-level mutable state
          and no unseeded randomness in ``sim/``
``R4``    registry coverage: every registered prefetcher is pinned
          by the golden grid (``tests/goldens/spatial-s3.json``)
``R5``    decline reasons: every decline return in ``sim/driver.py``
          carries a non-empty reason string
``R6``    no silent failure in ``experiments/``: every exception
          handler re-raises, returns/records a structured failure,
          or carries an explicit waiver with a reason
========  ==========================================================

``R2`` (C/Python twin-constant drift) is retired: each constant shared
with ``_kernels.c`` is defined once there and exported on the module.

Any diagnostic can be silenced with an inline waiver comment on the
flagged line or the line directly above it::

    _TABLE = {...}  # repro-lint: waive R3
    /* repro-lint: waive R3 */   (C sources)

Use :func:`run_lint` programmatically or ``python -m repro lint`` from
the command line.
"""

from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.engine import LintContext, LintReport, RULES, run_lint

__all__ = [
    "Diagnostic",
    "LintContext",
    "LintReport",
    "RULES",
    "run_lint",
]
