"""The library names the benchmark harness reaches into still exist.

`perfbench/tracing.py` times layers by replacing module attributes with
wrappers, and `perfbench/provenance.py` records `backend_name()`. A renamed
or moved function would otherwise show only when a traced benchmark run
fails to install. The tracing module is loaded read-only: no bytecode is
written next to it.
"""

import importlib.util
import os
import sys

from setloss import _backend

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_target_is_an_attribute_of_its_owner():
    targets = _load_tracing().targets()
    assert targets
    missing = [name for owner, attr, name in targets if attr not in vars(owner)]
    assert missing == []


def test_backend_name_is_exported():
    assert _backend.backend_name() == "pure"
