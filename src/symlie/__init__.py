"""symlie: exact-rational engine and claim auditor for the graded bracket
on totally symmetric cochains of finite-dimensional commutative algebras.
"""

from .algebra import (Algebra, IdentityReport, Witness, algebra_from_entries,
                      algebra_from_json_dict, algebra_to_json_dict,
                      check_cubic_jordan, check_operator_identity, check_six_term,
                      find_unit, multiplication_operator, product, product_cochain)
from .audit import AuditReport, ClaimRecord, audit, audit_all, render_text
from .bracket import (InsertionMode, check_jacobi, check_prelie, graded_bracket,
                      insert, insert_lowdeg_variant, unshuffles)
from .cochain import (SymCochain, basis_cochains, coeff_vector, from_coeff_vector, multisets,
                      sym_basis_dim)
from .complexes import (CohomologyReport, DifferentialData, check_d_squared,
                        coboundary_c1_explicit, coboundary_c2_explicit, cohomology,
                        derivations, differential, differential_matrix,
                        endomorphism_cochain, identity_cochain)
from .corpus import (CorpusEntry, corpus_entries, make_field, make_j2, make_non_jordan,
                     make_spin, write_corpus)
from .deformation import (DeformationSeries, GaugeSeries, MCStep, ObstructionClass,
                          gauge_equiv_first_order, gauge_transport,
                          gauge_transport_series, mc_order0, mc_residual,
                          mc_solve_chain, mc_solve_step, obstruction_class)
from .errors import FormatError, InvariantViolation
from .exactla import Matrix, kernel_basis, rank, rat_from_str, rat_to_str, solve

__version__ = "0.1.0"
