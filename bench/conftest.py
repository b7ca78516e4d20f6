import sys
from pathlib import Path

# The benchmark runs against the package sources in the same checkout.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
