"""The benchmark's traced run patches program attributes by name; a rename
must fail here, not only in a traced benchmark run."""

import importlib.util

from conftest import REPO


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_entry_points_resolve():
    # Tracer._wrap and CallClock save owner.__dict__[attr] to restore it later,
    # so an inherited or missing attribute breaks them
    tracer = load_tracer()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracer.ENTRY_POINTS if attr not in owner.__dict__]
    assert missing == []
