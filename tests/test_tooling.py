import importlib.util
from pathlib import Path

import aem.autograd

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_name_the_benchmark_tracer_wraps_exists():
    # the traced benchmark wraps these names by getattr; a rename here
    # would otherwise surface only as a crash in a traced run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = ["%s.%s" % (owner.__name__, attr)
               for _, owners, attr in spans.FUNCTIONS for owner in owners
               if not hasattr(owner, attr)]
    missing += ["aem.autograd.%s" % op for op in spans.OPS if not hasattr(aem.autograd, op)]
    assert not missing
