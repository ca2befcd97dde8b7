"""Flat array kernels for skyline search.

The package freezes a :class:`~repro.graph.mcrn.MultiCostGraph` into an
immutable CSR snapshot (:mod:`repro.accel.csr`), computes BBS's exact
bound matrix and reads its seeds off it (:mod:`repro.accel.bounds`),
and runs the BBS/m_BBS/one-to-all hot loops over those arrays:

* :mod:`repro.accel.bbs_kernel` and :mod:`repro.accel.onetoall_kernel`
  — the production kernel of every search, scalar flat loops
  bit-identical to the reference oracle of :mod:`repro.qa.reference`
  (only the constant factors change).

See ``docs/acceleration.md``.
"""

from repro.accel.bbs_kernel import flat_many_to_many, flat_skyline_paths
from repro.accel.blob import pack_bytes, pack_nbytes, read_pack, write_pack
from repro.accel.bounds import exact_bound_matrix
from repro.accel.csr import CSRSnapshot
from repro.accel.onetoall_kernel import flat_label_rows, flat_one_to_all

__all__ = [
    "CSRSnapshot",
    "exact_bound_matrix",
    "flat_label_rows",
    "flat_many_to_many",
    "flat_one_to_all",
    "flat_skyline_paths",
    "pack_bytes",
    "pack_nbytes",
    "read_pack",
    "write_pack",
]
