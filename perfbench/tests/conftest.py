"""Put the benchmark's modules and the program's ``src/`` on the path."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from common import use_source_tree  # noqa: E402

use_source_tree()
