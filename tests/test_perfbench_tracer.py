"""The traced benchmark patches package functions by name; keep those names."""

import importlib.util
from pathlib import Path

import fucik_branch
import fucik_branch.cli  # noqa: F401 -- TARGETS names functions in cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(where: str):
    obj = fucik_branch
    for part in where.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_exists_and_is_restored():
    tracing = load_tracer()
    originals = [(where, attr, resolve(where).__dict__[attr])
                 for where, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    try:
        tracer.install(fucik_branch)   # KeyError if a target is missing
        for where, attr, original in originals:
            assert resolve(where).__dict__[attr] is not original, (where, attr)
    finally:
        tracer.uninstall()
    for where, attr, original in originals:
        assert resolve(where).__dict__[attr] is original, (where, attr)
