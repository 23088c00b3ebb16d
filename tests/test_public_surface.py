"""The public names of the package: each exported once and importable."""

import ast
import dataclasses
import inspect
import json
import os
import re
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
    # the float route formulas: the link check prints the exact kernel's
    # values, and the routes are the test oracle's (link_oracle.free_routes)
    for name in (
        "mu_from_h_match", "mu_from_g_match", "mu_from_q", "q_from_p", "q_from_mu",
        "q_and_pn_from_mu", "mu_for_arik_coon_target", "PoleError",
    ):
        for module in (defosc, defosc.linkage, defosc.errors):
            assert not hasattr(module, name), (module.__name__, name)
    assert defosc._EXPORTS["linkage"] == ("check_link_consistency", "link_table")


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


def test_a_model_is_its_label_and_its_table():
    assert not hasattr(defosc.qp, "DeformationParams")  # constructors check parameters
    assert not hasattr(defosc.structure, "_LEVELS")  # a model carries its builder
    assert not hasattr(defosc.structure, "nonstd_qp_sf_explicit")  # a test oracle now
    fields = [field.name for field in dataclasses.fields(StructureFunctionModel)]
    assert fields == ["label", "table"]
    assert not hasattr(defosc.harmonic(), "variant")
    # a recipe model is the recipe over its pair, so sf_table need not tell it apart
    assert not hasattr(defosc.structure, "_recipe_levels")
    source = inspect.getsource(defosc.structure.sf_table)
    assert "isinstance" not in source and "partial" not in source


def test_one_recipe_loop():
    # Phi(n+1) = (g/h) Phi + 1/h is spelled once in the package, in the
    # recipe every consumer reaches, and the second loop beside it is gone
    package = Path(defosc.__file__).parent
    steps = [
        path.name
        for path in sorted(package.glob("*.py"))
        for line in path.read_text().splitlines()
        if re.search(r"\*\s*phi\s*\+", line)  # any step a * phi + b
    ]
    assert steps == ["structure.py"]
    for name in ("_recipe_table", "_recursion"):
        assert not hasattr(defosc.structure, name)
    assert not hasattr(defosc.fock, "_half_mu")


def test_one_table_of_exact_terms():
    # q + 1, mu and p**N are written once, in linkage's table of exact terms,
    # which the exact kernel and the 128-bit intervals both read
    linkage = defosc.linkage
    assert Path(linkage.__file__).read_text().count("as_integer_ratio") == 1
    assert "as_integer_ratio" in inspect.getsource(linkage._table)
    assert not hasattr(linkage, "_div")


def test_model_labels_are_spelled_by_the_catalog():
    # the X/P checks realize the catalog's own models, so a nonstandard or
    # two-sided label is spelled in structure alone, and fock builds no pair
    package = Path(defosc.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "structure.py":
            text = path.read_text()
            for label in ("nonstd-q(", "nonstd-qp(", "two-sided("):
                assert label not in text, (path.name, label)
    tree = ast.parse((package / "fock.py").read_text())
    imported = [
        alias.name for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    ]
    assert imported and not [name for name in imported if name.startswith("hg_for_")]
    assert not [name for name in vars(defosc.fock) if name.startswith("hg_for_")]


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


def test_one_overflow_guard_per_link_table():
    # link_table forms all its levels inside one double_range block, and the
    # interval sum aligns its terms itself
    linkage = defosc.linkage
    assert inspect.getsource(linkage.link_table).count("with double_range(") == 1
    for name in ("_at", "_double_range"):
        assert not hasattr(linkage, name)


def test_the_link_table_runs_no_recipe():
    # the target pair reproduces the deformed integers identically (proven
    # in test_linkage), so linkage forms no structure function: it imports
    # nothing from structure, keeps no name of the float recipe check, and
    # link_table compares its tolerance with nothing
    linkage = defosc.linkage
    tree = ast.parse(Path(linkage.__file__).read_text())
    imported = {  # modules, and names imported from them, as "from . import structure" has
        name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (getattr(node, "module", None) or "", *(alias.name for alias in node.names))
    }
    assert not any(name.split(".")[-1] == "structure" for name in imported)
    for name in ("RECIPE_GAP_BOUND", "SF_LEVELS", "_recipe_gaps", "_target_pair",
                 "_exceeds_double_range"):
        assert not hasattr(linkage, name), name
    table = ast.parse(inspect.getsource(linkage.link_table))
    compared = {
        node.id for compare in ast.walk(table) if isinstance(compare, ast.Compare)
        for node in ast.walk(compare) if isinstance(node, ast.Name)
    }
    assert "tol" not in compared


def test_one_number_reader():
    # qp.require_* read every public number at the entrance that takes it, so
    # no layer keeps a number handler of its own
    package = Path(defosc.__file__).parent
    assert not hasattr(defosc.verify, "_float")
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        imported = [
            node.module if isinstance(node, ast.ImportFrom) else alias.name
            for node in ast.walk(ast.parse(text)) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        assert "fractions" not in imported and "decimal" not in imported, path.name
        assert ("Rational" in text) == (path.name == "qp.py"), path.name
