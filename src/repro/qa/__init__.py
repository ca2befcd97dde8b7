"""repro.qa — randomized differential testing and invariant checking.

The serving stack (engine + cache + batch + store + maintenance) is
only trustworthy if its answers continuously agree with exact BBS, the
guarantee the paper's quality metrics are defined against.  This
package makes that a running check rather than a hope:

* :mod:`repro.qa.workload` — seeded random graphs, query workloads,
  and structural-update scripts;
* :mod:`repro.qa.invariants` — executable invariants (path validity
  and pricing, mutual non-dominance, dominance consistency with the
  exact skyline, bit-identical variant agreement);
* :mod:`repro.qa.reference` — the reference oracle: the plain python
  BBS, m_BBS and one-to-all loops and the scalar build that every
  production kernel is held to;
* :mod:`repro.qa.bounds` — the reference's lower-bound providers
  (exact, landmark, zero) and the landmark index;
* :mod:`repro.qa.differential` — the runner crossing exact BBS, the
  fresh index, binary-store round trips (eager and lazy), the cached
  engine, and the maintained index over every workload query, plus the
  reference-vs-production contract table;
* :mod:`repro.qa.metamorphic` — oracle-free relations (source/target
  swap, cost-dimension permutation, uniform scaling);
* :mod:`repro.qa.shrink` — delta-debugging reducer emitting
  ready-to-paste regression fixtures;
* :mod:`repro.qa.mp_load` — concurrent-maintenance-under-load checking
  for multi-process serving: every worker response bit-matched against
  the expected answers of the generation it is stamped with;
* :mod:`repro.qa.quality` — the corridor quality tripwire: corridor
  answers valid, non-dominated, dominance-consistent with exact, and
  never *reported* as better than exact.

Exposed on the command line as ``repro qa fuzz`` / ``qa replay`` /
``qa shrink``; CI runs a fixed-seed fuzz smoke on every change.
"""

from repro.qa.differential import (
    CaseReport,
    Discrepancy,
    FuzzReport,
    QAConfig,
    fuzz,
    run_case,
)
from repro.qa.invariants import (
    answer_set_errors,
    approximation_errors,
    cost_skyline_errors,
    identical_answer_errors,
    non_dominance_errors,
    path_errors,
)
from repro.qa.mp_load import MPLoadConfig, fuzz_mp, run_mp_case
from repro.qa.quality import (
    check_corridor_quality,
    run_quality_case,
    run_quality_tripwire,
)
from repro.qa.shrink import (
    ShrunkCase,
    emit_fixture,
    shrink_case,
    static_differential_problems,
)
from repro.qa.workload import CaseSpec, QACase, apply_updates, build_case

__all__ = [
    "CaseReport",
    "CaseSpec",
    "Discrepancy",
    "FuzzReport",
    "MPLoadConfig",
    "QACase",
    "QAConfig",
    "ShrunkCase",
    "answer_set_errors",
    "apply_updates",
    "approximation_errors",
    "build_case",
    "check_corridor_quality",
    "cost_skyline_errors",
    "emit_fixture",
    "fuzz",
    "fuzz_mp",
    "identical_answer_errors",
    "non_dominance_errors",
    "path_errors",
    "run_case",
    "run_mp_case",
    "run_quality_case",
    "run_quality_tripwire",
    "shrink_case",
    "static_differential_problems",
]
