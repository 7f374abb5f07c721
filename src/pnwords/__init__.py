"""Prefix normal words: Gray code generation, membership, analysis.

A binary word is prefix normal when no substring contains more 1s than
the prefix of the same length.  This package generates all prefix normal
words of a given length as a cool-lex Gray code (plus a cyclic variant
and a simple lexicographic generator), tests membership, computes prefix
normal forms and substring Parikh queries, and reproduces the counting,
critical-prefix and rejection-rate statistics of the family.
"""

from .core import (
    BjpmIndex,
    CriticalPrefix,
    WordFormatError,
    complement,
    critical_prefix,
    is_extension_critical,
    is_prefix_normal,
    max_ones,
    member_two_phase,
    min_ones,
    parse_word,
    phase1_rejects,
    pnf,
    prefix_weights,
    run_length_blocks,
    weight,
)
from .bubble import (
    Collector,
    check_tree_closure,
    gen_bubble,
    is_first01_bubble,
    recursive_swap_all,
    word_str,
)
from .pnoracle import (
    GenerationInvariantError,
    GenerationStats,
    count_all_pn,
    gen_bubble_pn,
    generate_all_pn,
    generate_all_pn_cyclic,
    pn_words,
    simple_generate_pn,
)
from .analysis import (
    CrStats,
    GrayChecker,
    GrayReport,
    GrayViolation,
    RatioReport,
    count_pnw,
    cr_stats_all_words,
    cr_stats_pn,
    critical_prefix_of_pnf,
    critical_prefix_sum,
    equivalence_class,
    gray_close,
    pnf_cr_sample,
    pnw_deficit,
    rejection_ratio,
    transposition_counts,
    verify_gray,
)

__version__ = "0.1.0"
