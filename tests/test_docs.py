"""The README's library example imports names that exist, from the modules
that define them; the package's top level holds only its version,
``raga_moodkit.models`` only the family registry, and ``raga_moodkit.errors``
only the error kinds the exit codes tell apart."""
import ast
import importlib
import inspect
import re
from pathlib import Path

import raga_moodkit
from raga_moodkit import errors, models

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_imports_resolve():
    imports = [node for node in ast.walk(ast.parse(library_use_block()))
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module} has no {alias.name}"


def test_package_top_level_holds_only_the_version():
    public = [name for name, value in vars(raga_moodkit).items()
              if not name.startswith("_") and not inspect.ismodule(value)]
    assert public == []
    assert raga_moodkit.__version__


def test_models_package_holds_only_the_family_registry():
    public = {name for name, value in vars(models).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    # what make_classifier itself needs: the annotations feature, its return type and its error
    own_imports = {"annotations", "BaseClassifier", "ValidationError"}
    families = {cls.__name__ for cls in models.FAMILIES.values()}
    assert len(families) == 6
    assert public - own_imports == {"FAMILIES", "FAMILY_ORDER", "make_classifier"} | families


def test_errors_module_holds_only_the_kinds_the_exit_codes_tell_apart():
    public = {name for name, value in vars(errors).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {"MoodkitError", "ValidationError", "DataError", "CorruptArtifact", "MALFORMED_CONTENT"}
    assert issubclass(errors.ValidationError, errors.MoodkitError)
    assert issubclass(errors.DataError, errors.MoodkitError)
    assert issubclass(errors.CorruptArtifact, errors.DataError)
