"""The computation core: per-class term values and subset-lattice scans.

Library modules call it as `backend.<fn>`, looking the function up on each
call, so wrapping or patching an attribute of `pure` reaches every caller.
"""

from . import pure as backend


def backend_name() -> str:
    return "pure"
