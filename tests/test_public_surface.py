"""The public names of the package: each exported once and importable."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import defosc
from defosc import FockRep, StructureFunctionModel
import sf_oracle


def test_every_exported_name_resolves_once():
    assert len(defosc.__all__) == len(set(defosc.__all__))
    for name in defosc.__all__:
        assert hasattr(defosc, name), name


def test_the_lazy_namespace_in_a_fresh_interpreter():
    # before any submodule is imported: dir lists every export, submodules
    # resolve as attributes, and an unknown name is still missing, so the
    # hasattr(defosc, ...) checks below stay meaningful
    probe = (
        "import json, defosc\n"
        "print(json.dumps({\n"
        "    'missing_from_dir': sorted(set(defosc.__all__) - set(dir(defosc))),\n"
        "    'submodules': [defosc.linkage.__name__, defosc.qp.__name__],\n"
        "    'unknown': hasattr(defosc, 'LinkInput'),\n"
        "    'bound_before_use': 'sf_table' in vars(defosc),\n"
        "    'bound': defosc.sf_table is defosc.structure.sf_table\n"
        "             and 'sf_table' in vars(defosc),\n"
        "}))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert json.loads(result.stdout) == {
        "missing_from_dir": [],
        "submodules": ["defosc.linkage", "defosc.qp"],
        "unknown": False,
        "bound_before_use": False,
        "bound": True,
    }


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from defosc import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(defosc.__all__)


def test_operators_have_one_representation():
    for name in ("CoefficientProfile", "ratio_profile", "HBAR"):
        assert not hasattr(defosc, name)
    assert not hasattr(defosc.qp, "HBAR")  # unused: hbar = 1 is a convention
    for name in ("a_plus", "a_minus", "n_op", "x_op", "p_op"):
        assert not hasattr(FockRep, name)


def test_unused_api_stays_removed():
    for name in ("LinkInput", "generalized_factorial"):
        assert not hasattr(defosc, name)
    assert not hasattr(defosc.linkage, "LinkInput")  # formulas take plain arguments
    assert not hasattr(defosc.linkage, "hg_for_two_sided")  # its closure is a test proof
    assert not hasattr(defosc.qp, "generalized_factorial")  # the recipe runs products
    for name in ("DeformationParams", "nonstd_qp_sf_explicit"):
        assert not hasattr(defosc, name)


def test_one_formula_per_structure_function():
    # no threshold switches a structure function to a limit branch, and
    # nonstd-q is the two-parameter expression at p = 1
    assert not hasattr(defosc.qp, "SINGULARITY_THRESHOLD")
    assert not hasattr(defosc.structure, "EQUAL_CASE_LIMIT_THRESHOLD")
    assert not hasattr(defosc.structure, "_nonstd_q_levels")
    # the paper's equal-coefficient closed form is a test cross-check only
    assert not hasattr(defosc, "two_sided_equal_sf")
    assert not hasattr(defosc.structure, "two_sided_equal_sf")
    assert sf_oracle.two_sided_equal_sf_closed_form.__module__ == "sf_oracle"
    for path in Path(defosc.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "two_sided_equal_sf" not in text, path.name
        assert "2 - 2 * n" not in text, path.name  # the closed form's Q**(2 - 2n)


def test_a_model_is_its_label_and_its_levels():
    assert not hasattr(defosc.qp, "DeformationParams")  # constructors check parameters
    assert not hasattr(defosc.structure, "_LEVELS")  # a model carries its builder
    assert not hasattr(defosc.structure, "nonstd_qp_sf_explicit")  # a test oracle now
    fields = [field.name for field in dataclasses.fields(StructureFunctionModel)]
    assert fields == ["label", "levels"]
    assert not hasattr(defosc.harmonic(), "variant")


def test_one_overflow_rule():
    # EvaluationOverflowError is constructed in errors.double_range alone
    package = Path(defosc.__file__).parent
    sites = [
        path.name for path in sorted(package.glob("*.py"))
        if "EvaluationOverflowError(" in path.read_text()
    ]
    assert sites == ["errors.py"]
    assert (package / "errors.py").read_text().count("raise EvaluationOverflowError(") == 1
    for name in ("_OVERFLOWS", "_overflow"):
        assert not hasattr(defosc.structure, name)
    assert not hasattr(defosc.linkage, "contextmanager")  # no hand-written copy
