"""Package structure: every name one module takes from another is public, and
every public name is reached by the package or the benchmark."""

import ast
from pathlib import Path

import remotehom

MODULES = sorted(Path(remotehom.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def private_relative_imports(path: Path) -> list[str]:
    """`module.name` for every `_`-prefixed name a relative import in `path` brings in."""
    return [f"{node.module}.{alias.name}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_another():
    assert len(MODULES) > 1
    found = {p.name: names for p in MODULES if (names := private_relative_imports(p))}
    assert found == {}


def exported_names(path: Path) -> list[str]:
    """The string entries of the module-level `__all__` of `path`."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def referenced_names(path: Path) -> set[str]:
    """Every name `path` reads, as a bare name, an attribute or an import: a
    definition, an assignment or an `__all__` string is not a reference."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_is_reached_outside_the_tests():
    # a public name that only tests call is code no command runs
    assert BENCHMARK, "perfbench/ not found next to tests/"
    reached = set().union(*map(referenced_names, MODULES + BENCHMARK))
    unreached = {p.name: names for p in MODULES
                 if (names := [n for n in exported_names(p) if n not in reached])}
    assert unreached == {}


# callables that no command runs, kept while perfbench/ imports them: the tests
# and bench/ scripts allowed to reference each (its own unit tests, or a paper
# check that reads it)
SECOND_PATHS = {
    "simulate_histogram": {"test_hom_montecarlo.py"},
    "make_source_pair": {"test_overlap_analytics.py"},
    "remote_upper_bound": {"test_overlap_analytics.py", "test_acceptance.py"},
    "sample_frequency_path": {"test_spectral_noise.py"},
    "WanderingProcess": {"test_spectral_noise.py"},
}


def test_only_their_own_tests_reach_the_paths_no_command_takes():
    files = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    assert len(files) > 2
    refs = {p.name: referenced_names(p) for p in files}
    found = {name: {f for f, names in refs.items() if name in names} - allowed
             for name, allowed in SECOND_PATHS.items()}
    assert found == dict.fromkeys(SECOND_PATHS, set())
