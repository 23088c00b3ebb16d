"""Deformed Heisenberg algebras and their deformed-oscillator realizations.

The package namespace is lazy (PEP 562): `import defosc` loads no
submodule, and a public name imports the submodule that owns it on first
access and is then bound here.  numpy loads only with the layers that
build bands (fock, verify, limits), so structure functions, spectra and
the linkage run without it.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports (cli exports none)
_EXPORTS = {
    "cli": (),
    "errors": (
        "DeformedAlgebraError",
        "DomainError",
        "EvaluationOverflowError",
        "NegativeStructureFunctionError",
        "PoleError",
        "RecipeDivisionError",
    ),
    "fock": ("FockRep", "build_ladder", "build_xp", "hamiltonian"),
    "limits": ("LimitCheck", "run_limit_suite"),
    "linkage": (
        "check_link_consistency",
        "link_table",
        "mu_for_arik_coon_target",
        "mu_from_g_match",
        "mu_from_h_match",
        "mu_from_q",
        "q_and_pn_from_mu",
        "q_from_mu",
        "q_from_p",
    ),
    "qp": ("qp_number",),
    "report": ("ResidualReport",),
    "structure": (
        "HGPair",
        "StructureFunctionModel",
        "arik_coon",
        "biedenharn_macfarlane",
        "chakrabarti_jagannathan",
        "custom_hg",
        "equal_hg_special_case",
        "harmonic",
        "hg_for_q_ha",
        "hg_for_qp_ha",
        "hg_for_two_sided",
        "jannussis_mu",
        "nonstd_q",
        "nonstd_qp",
        "sf_eval",
        "sf_from_hg",
        "sf_table",
        "spectrum",
        "two_sided_equal_hg",
    ),
    "verify": (
        "verify_commutator_sf",
        "verify_hg",
        "verify_q_ha",
        "verify_qp_ha",
        "verify_two_sided",
    ),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNERS)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNERS[name]}"), name)
    globals()[name] = value  # later lookups never reach this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
