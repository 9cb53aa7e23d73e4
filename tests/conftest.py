"""Suite-wide test setup: the tests write no bytecode into the checkout.

A __pycache__ left in src/ would make a later perfbench run of the same
checkout start faster (a lower setup_s) than a clean one.  The flag covers
modules imported in process, and the environment variable covers the
`python -m perfproj.cli` children, which inherit os.environ.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
