"""The benchmark's tracer patches library names from outside: every one of
them must exist, or ``perfbench/run.py --trace 1`` crashes at install."""
import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SITES
    for module, owner, attr, *_ in tracer.SITES:
        obj = importlib.import_module(module)
        if owner:
            obj = getattr(obj, owner)
        assert callable(getattr(obj, attr, None)), tracer.site_key((module, owner, attr))
