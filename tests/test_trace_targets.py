"""perfbench's tracer wraps veq functions by module and name and reads some
of their arguments by position. A refactor that renames, moves or reorders
one of them stops those per-layer metrics from reporting, so pin what the
tracer reads. Only reads perfbench/."""

import importlib.util
import inspect
import os

from veq import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def test_every_target_is_a_function_of_its_module():
    for module, names in tracing.TARGETS.items():
        mod = importlib.import_module(f"veq.{module}")
        for name in names:
            fn = getattr(mod, name, None)
            assert inspect.isfunction(fn), f"veq.{module}.{name}"
            assert fn.__module__ == f"veq.{module}", f"veq.{module}.{name}"


def test_cli_verbs_are_handlers():
    assert set(tracing.CLI_VERBS) <= set(cli.HANDLERS)


def positional(module, name):
    fn = getattr(importlib.import_module(f"veq.{module}"), name)
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def test_arguments_the_tracer_reads_keep_their_positions():
    # tracing._term_function reads A at 0 and n at 2; the wronskian wrapper
    # reads entries at 0
    params = positional("algebras", "term_function")
    assert params.index("A") == 0 and params.index("n") == 2
    assert positional("series", "wronskian").index("entries") == 0
