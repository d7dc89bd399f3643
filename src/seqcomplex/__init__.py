"""Analysis of p^n-periodic binary sequences.

Linear complexity via divide-and-sum descent (Games-Chan at p = 2, with a
Berlekamp-Massey oracle for cross-checks), k-error complexity and its
critical points, hypercube structure and decomposition, counting, and
stable-sequence construction.

Each public name is imported from its submodule on first use, so importing
the package (or one submodule, such as the command line) loads only the
modules actually read.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> submodule that defines it
_SOURCES = {
    **dict.fromkeys((
        "CountResult", "class_lc", "count_hypercubes", "count_sequences_with_lc",
        "enumerate_hypercubes",
    ), "counting"),
    "SeqComplexError": "errors",
    **dict.fromkeys((
        "Decomposition", "HypercubeStructure", "VertexDescriptor", "cube_lc",
        "extract_structure", "is_hypercube", "lc_from_structure", "next_lower_hypercube_lc",
        "standard_decompose",
    ), "hypercube"),
    **dict.fromkeys((
        "CelcsPoint", "CriticalReport", "celcs", "construct_stable",
        "first_critical_bruteforce", "first_critical_m", "k_error_lc_bruteforce",
        "kurosawa_m", "meidl_upper_bound",
    ), "kerror"),
    **dict.fromkeys((
        "LCForm", "XwliStep", "XwliTrace", "berlekamp_massey_lc", "lc",
        "lc_form_decompose", "xwli_lc",
    ), "lincomp"),
    **dict.fromkeys((
        "Modulus", "PeriodicSequence", "parse_corpus", "parse_sequence",
    ), "sequences"),
    **dict.fromkeys(("SUITES", "SuiteReport", "run_suites"), "verify"),
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
