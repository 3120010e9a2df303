"""Paths to the bundled sample datasets."""

from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"


def sample_path(*parts: str) -> Path:
    """Bundled file, e.g. sample_path('jobs.csv') or sample_path('kernels', 'NCF_Py.csv')."""
    path = DATA_DIR.joinpath(*parts)
    if not path.exists():
        raise FileNotFoundError(path)
    return path
