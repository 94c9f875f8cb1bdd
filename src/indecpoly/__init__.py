"""Exact algebra for indecomposable polynomials over finite fields:
functional decomposition, spectra, a mod-p indecomposability criterion, and
exact censuses cross-checked by exhaustive enumeration."""

from .arith import divisors, factorint, is_prime, primes_upto
from .census import (CensusReport, bd_lemma_check, bounds_check_n2, count_closed_small,
                     count_recursive, count_total, count_uni, enumerate_census,
                     enumerate_census_parallel, merge_reports, trend_table)
from .decompose import (Decomposition, compose, decompose_multi, dickson,
                        is_indecomposable_multi, is_pth_power, normalize, poly_eth_root)
from .factoring import (Factorization, absolutely_irreducible, bivar_factor,
                        bivar_irreducible, conjugate_split_count, n_bar_factors,
                        squarefree_part, uni_factor)
from .fields import (GuardExceeded, QQ, ZZ, embedding, field_from_order,
                     finite_field, projection)
from .modp import (CriterionChain, build_chain, content_primitive, criterion_holds,
                   good_primes)
from .mpoly import MPoly, format_poly
from .parsing import ParseError, parse_poly
from .resultants import discriminant, resultant
from .unipoly import roots as uni_roots
from .spectrum import (SpectralReport, SpectrumUnbounded, quadratic_spectral_value,
                       reduction_compatibility, spectral_values, stein_check)

__version__ = "0.1.0"
