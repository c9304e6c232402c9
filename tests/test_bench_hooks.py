"""The benchmark tracer still finds every name it hooks.

bench/tracer.py wraps the functions it lists and patches two hooks,
RootExpr.__post_init__ and QValue.is_zero, by name.  This loads it from
the checkout unchanged, traces one `construct` and checks that
uninstall puts every original back.
"""

import importlib.util
import sys
from pathlib import Path

import linkdyn.cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    """Every attribute of every loaded linkdyn module, and the two hooks."""
    bindings = {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "linkdyn" or name.startswith("linkdyn.")
        for attr, value in vars(mod).items()
    }
    braiding = sys.modules["linkdyn.braiding"]
    presentation = sys.modules["linkdyn.presentation"]
    bindings["RootExpr.__post_init__"] = braiding.RootExpr.__post_init__
    bindings["QValue.is_zero"] = vars(presentation.QValue)["is_zero"]
    return bindings


def test_tracer_installs_traces_construct_and_uninstalls(tmp_path, capsys):
    path = tmp_path / "a1a1.dg"
    path.write_text("vertices 2\nlink 1 2\n", encoding="utf-8")
    before = package_bindings()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert package_bindings() != before
        assert linkdyn.cli.main(["construct", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.startswith("constructed: root order 5\n")
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "braiding.construct", "existence.check"} <= names
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
