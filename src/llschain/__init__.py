"""Exact-arithmetic limit linear series on a chain of three rational curves.

Layered API: :mod:`llschain.exactla` (rational linear algebra),
:mod:`llschain.lattice` (multidegrees and canonical walks),
:mod:`llschain.chain_model` (section spaces and twist matrices),
:mod:`llschain.lls_core` (series data model and validators),
:mod:`llschain.simple_basis` (simple-basis certificates),
:mod:`llschain.generator` (seeded synthesis and negative controls),
:mod:`llschain.cli` (command-line front door).
"""

from .chain_model import ChainCurve, verify_sheaf_laws
from .exactla import Matrix, Subspace
from .generator import GenSpec, degrade, gen_exact_search, gen_simple
from .lattice import Direction, Multidegree, all_multidegrees, canonical_path
from .lls_core import (
    LlsInstance,
    codim_report,
    distributive_at,
    exactness,
    from_chain,
    identity_suite,
    load_instance,
    save_instance,
    validate,
)
from .simple_basis import (
    SimpleCertificate,
    extract_certificate,
    is_simple,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "ChainCurve",
    "Direction",
    "GenSpec",
    "LlsInstance",
    "Matrix",
    "Multidegree",
    "SimpleCertificate",
    "Subspace",
    "all_multidegrees",
    "canonical_path",
    "codim_report",
    "degrade",
    "distributive_at",
    "exactness",
    "extract_certificate",
    "from_chain",
    "gen_exact_search",
    "gen_simple",
    "identity_suite",
    "is_simple",
    "load_instance",
    "save_instance",
    "validate",
    "verify_certificate",
    "verify_sheaf_laws",
]
