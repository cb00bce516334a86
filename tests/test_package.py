"""The package's public names: each module's ``__all__`` lists what it defines."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import ostwave

LIBRARY = ("critical", "errors", "floquet_hill", "mi_index", "stokes", "symbols")

# the names the package exported before it re-exported its modules' __all__
EXPORTED_BEFORE = [
    "BracketError", "CriticalResult", "DispersionSymbol", "DomainError", "FloquetProblem", "FloquetSpectrum",
    "HypothesisReport", "InconclusiveError", "IndexResult", "ModelParams", "NoRootError", "ResonanceError",
    "SolveError", "StabilityDiagram", "StokesWave", "assemble", "assemble_b_matrix", "bmatrix_det_roots",
    "check_hypotheses", "check_resonance", "classify_intervals", "convergence_study", "detuning_ratio", "diagram",
    "expand", "find_resonances", "group_velocity", "group_velocity_derivative", "growth_rate_leading",
    "harmonic_denominator", "index", "kc_closed_form", "kc_numeric", "make_symbol", "max_growth",
    "params_from_alpha", "parse_symbol_spec", "phase_velocity", "profile", "residual_norm", "spectrum", "speed",
    "spot_check", "tc_of_alpha", "unperturbed_eigenvalue",
]


def test_all_lists_every_public_definition():
    modules = [ostwave] + [
        importlib.import_module(f"ostwave.{info.name}") for info in pkgutil.iter_modules(ostwave.__path__)
    ]
    checked = 0
    for module in modules:
        if not hasattr(module, "__all__"):
            continue
        defined = {
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
        assert sorted(defined - set(module.__all__)) == [], module.__name__
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__
        checked += 1
    assert checked >= 8


def test_package_exports_the_library_modules_all():
    modules = [importlib.import_module(f"ostwave.{name}") for name in LIBRARY]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names)) == 52
    assert ostwave.__all__ == [*names, "__version__"]
    for module in modules:
        for name in module.__all__:
            assert getattr(ostwave, name) is getattr(module, name), (module.__name__, name)


def test_package_still_exports_every_earlier_name():
    assert len(EXPORTED_BEFORE) == 45
    assert [name for name in EXPORTED_BEFORE if name not in ostwave.__all__] == []
