"""Every name the perfbench tracer re-binds or reads must exist.

The tracer resolves its targets only in a traced benchmark pass, so a
change that renames or deletes a traced function would otherwise surface
there and not in the test suite.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the tracer looks modules up in sys.modules, as a benchmark pass has them
    for _, target, _ in module.TARGETS:
        importlib.import_module("epschar." + target.split(".")[0])
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    for _, target, _ in tracer.TARGETS:
        _, _, raw = tracer._resolve(target)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        assert callable(fn), target


def test_every_tracer_cache_has_cache_info():
    tracer = _load_tracer()
    for prefix, module, attr in tracer.CACHES:
        cache = getattr(importlib.import_module("epschar." + module), attr)
        assert cache.cache_info().currsize >= 0, prefix
