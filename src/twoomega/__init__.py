"""Certificate-producing coloring of (p3up2, w4)-free graphs within twice
the clique number, with exact oracles, pattern detection, tightness
witnesses and a corpus harness."""

from .graphs import (
    Graph,
    GraphParseError,
    bitmask,
    bit_list,
    bits,
    complete,
    cycle,
    empty_graph,
    graph6_decode,
    graph6_encode,
    induced,
    join,
    parse_graph6_lines,
    path,
    union,
)
from .patterns import (
    ClassReport,
    Pattern,
    PatternEmbedding,
    PATTERNS,
    class_membership,
    find_induced,
    has_induced,
    is_class_member,
)
from .oracles import (
    ChromaticResult,
    Coloring,
    chromatic_number,
    clique_number,
)
from .colorer import (
    BranchChoice,
    BranchTrace,
    BudgetViolation,
    CheckResult,
    ColoringCertificate,
    ColoringTimeout,
    NotInClass,
    Part,
    PartStrategy,
    StrategyPreconditionFailed,
    certificate_to_json,
    check_certificate,
    color_bounded,
    execute_part,
    find_branch,
)
from .witnesses import (
    WitnessReport,
    groetzsch,
    mycielskian,
    schlafli_complement,
    verify_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
