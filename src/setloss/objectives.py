"""Registry of the thirteen loss objectives.

`OBJ_CODE` gives each objective the integer code the computation core
dispatches on; `setloss._backend.pure` reads its constants from here. The
frozen oracle in tests/test_pure_backend.py spells the codes as literals,
so keep the order of `OBJECTIVES` stable.
"""

OBJECTIVES = (
    "triplet",
    "n-pairs",
    "opl",
    "snn",
    "supcon",
    "submod-triplet",
    "submod-snn",
    "submod-supcon",
    "gc-sf",
    "gc-cf",
    "logdet-sf",
    "logdet-cf",
    "fl",
)

OBJ_CODE = {name: i for i, name in enumerate(OBJECTIVES)}

# Objectives whose per-class term reads the Euclidean distance matrix.
NEEDS_DISTANCE = frozenset({"triplet", "submod-snn"})

# Objectives evaluable on a single-class batch (total-correlation flavor
# terms are all zero there); the rest require >= 2 classes.
SINGLE_CLASS_OK = frozenset({"fl", "gc-sf", "gc-cf", "logdet-sf", "logdet-cf"})

# Objectives whose per-anchor log arguments (row similarity sums minus one)
# must be positive for the value to exist.
NEEDS_POSITIVE_ROWSUM = frozenset({"n-pairs", "supcon"})

# Diminishing-returns property of each objective; the lattice checker
# compares its empirical verdict against this column. Values:
#   "submodular"      claimed submodular, and no proof against it is known;
#   "not-submodular"  claimed non-submodular (the pairwise baselines);
#   "refuted"         claimed submodular, but the formula as implemented is
#                     disproved in closed form, so a scan must find
#                     violations. submod-snn is the one case; the proof is
#                     tests/test_submodcheck.py::
#                     test_submod_snn_orthonormal_counterexample_closed_form.
# Only "submodular" expects a scan to find no violations.
EXPECTED_PROPERTY = {
    "triplet": "not-submodular",
    "n-pairs": "submodular",
    "opl": "submodular",
    "snn": "not-submodular",
    "supcon": "not-submodular",
    "submod-triplet": "submodular",
    "submod-snn": "refuted",
    "submod-supcon": "submodular",
    "gc-sf": "submodular",
    "gc-cf": "submodular",
    "logdet-sf": "submodular",
    "logdet-cf": "submodular",
    "fl": "submodular",
}

GC_OBJECTIVES = frozenset({"gc-sf", "gc-cf"})
LOGDET_OBJECTIVES = frozenset({"logdet-sf", "logdet-cf"})
